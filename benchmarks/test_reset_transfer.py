"""E13 — section IV-B: identity reset and identity transfer.

Transfer: a fingerprint-authorized encrypted bundle moves every binding to
a new device, which can immediately log in — with no server-side change at
all — while the old device, whose records the transfer drops, is refused.
Reset: after a device is lost, the password fallback severs the server-side
key binding, so a device that still holds its record can no longer log in.
"""

import numpy as np
import pytest

from repro.eval import LOGIN_BUTTON_XY, render_table, standard_deployment
from repro.flock import StorageError
from repro.net import (
    MobileDevice,
    UntrustedChannel,
    WebServer,
    transfer_identity,
    reset_identity,
    TrustClient,
)
from .conftest import emit


def test_reset_transfer(benchmark, rng, monkeypatch):
    world = standard_deployment(seed=42)
    server = WebServer("www.e13.example", world.ca, b"e13-server")
    server.create_account("alice", "fallback-password")
    channel = UntrustedChannel()
    outcome = TrustClient(world.device, server, channel).register(
        "alice", LOGIN_BUTTON_XY, world.user_master, rng)
    assert outcome.success, outcome.reason

    rows = []

    # ---- transfer --------------------------------------------------------
    new_device = MobileDevice("alice-new-phone", b"e13-new-device",
                              ca=world.ca)

    # Record the bundle the transfer itself exports: a second export would
    # draw from the old FLock's DRBG, and after the transfer the old device
    # holds no service records left to export.
    bundles = []
    export = world.device.flock.export_identity

    def recording_export(*args, **kwargs):
        bundles.append(export(*args, **kwargs))
        return bundles[-1]

    monkeypatch.setattr(world.device.flock, "export_identity",
                        recording_export)

    def do_transfer():
        return transfer_identity(world.device, new_device, LOGIN_BUTTON_XY,
                                 world.user_master, rng)

    transferred = benchmark.pedantic(do_transfer, rounds=1, iterations=1)
    monkeypatch.undo()
    assert len(bundles) == 1
    rows.append(["domains transferred", len(transferred)])
    rows.append(["encrypted bundle size", f"{len(bundles[0])} B"])

    new_login = TrustClient(new_device, server, channel).login(
        "alice", LOGIN_BUTTON_XY, world.user_master, rng)
    rows.append(["new device logs in after transfer", new_login.reason])
    new_device.flock.close_session(server.domain)
    # Refused on the device before any touch, so no draw from ``rng``.
    old_login = TrustClient(world.device, server, channel).login(
        "alice", LOGIN_BUTTON_XY, world.user_master, rng)
    rows.append(["old device login after transfer", old_login.reason])

    # ---- reset -----------------------------------------------------------
    assert reset_identity(server, "alice", "fallback-password")
    rows.append(["binding removed by password reset",
                 server.account_key("alice") is None])
    # The new device stands in for a lost one: it still holds the record,
    # so only the server-side reset can refuse it.  A local generator keeps
    # the session ``rng`` draws of later benchmarks unchanged.
    reset_login = TrustClient(new_device, server, channel).login(
        "alice", LOGIN_BUTTON_XY, world.user_master,
        np.random.default_rng(13))
    rows.append(["bound device login after reset", reset_login.reason])

    # Rebind from the new device (fresh Fig. 9 run).
    new_device.flock.unbind_service(server.domain)
    rebind = TrustClient(new_device, server, channel).register(
        "alice", LOGIN_BUTTON_XY, world.user_master, rng)
    rows.append(["re-registration from new device", rebind.reason])

    table = render_table(["step", "result"], rows,
                         title="E13: identity transfer + identity reset")
    emit("E13_reset_transfer", table)
    # Transfer already unbound the old device (the PV405 invariant).
    with pytest.raises(StorageError):
        world.device.flock.service_view(server.domain)

    # Shape assertions.
    assert "www.e13.example" in transferred
    assert new_login.success
    assert old_login.reason.startswith("device-rejected")
    assert reset_login.reason == "unknown-account"  # reset severed it
    assert rebind.success
