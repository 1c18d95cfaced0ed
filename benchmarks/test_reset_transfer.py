"""E13 — section IV-B: identity reset and identity transfer.

Reset: after a device is lost, the password fallback severs the key
binding and the old device can no longer log in.  Transfer: a fingerprint-
authorized encrypted bundle moves every binding to a new device, which can
immediately log in — with no server-side change at all.
"""

import numpy as np

from repro.eval import LOGIN_BUTTON_XY, render_table, standard_deployment
from repro.net import (
    MobileDevice,
    UntrustedChannel,
    WebServer,
    transfer_identity,
    reset_identity,
    TrustClient,
)
from .conftest import emit


def test_reset_transfer(benchmark, rng):
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

    def do_transfer():
        return transfer_identity(world.device, new_device, LOGIN_BUTTON_XY,
                                 world.user_master, rng)

    transferred = benchmark.pedantic(do_transfer, rounds=1, iterations=1)
    bundle_size = len(world.device.flock.export_identity(
        new_device.flock.public_key, authorizing_touch_verified=True))
    rows.append(["domains transferred", len(transferred)])
    rows.append(["encrypted bundle size", f"{bundle_size} B"])

    new_login = TrustClient(new_device, server, channel).login(
        "alice", LOGIN_BUTTON_XY, world.user_master, rng)
    rows.append(["new device logs in after transfer", new_login.reason])
    new_device.flock.close_session(server.domain)

    # ---- reset -----------------------------------------------------------
    assert reset_identity(server, "alice", "fallback-password")
    rows.append(["binding removed by password reset",
                 server.account_key("alice") is None])
    old_login = TrustClient(world.device, server, channel).login(
        "alice", LOGIN_BUTTON_XY, world.user_master, rng)
    rows.append(["old device login after reset", old_login.reason])

    # Rebind from the new device (fresh Fig. 9 run).
    new_device.flock.unbind_service(server.domain)
    rebind = TrustClient(new_device, server, channel).register(
        "alice", LOGIN_BUTTON_XY, world.user_master, rng)
    rows.append(["re-registration from new device", rebind.reason])

    table = render_table(["step", "result"], rows,
                         title="E13: identity transfer + identity reset")
    emit("E13_reset_transfer", table)
    world.device.flock.unbind_service(server.domain)

    # Shape assertions.
    assert "www.e13.example" in transferred
    assert new_login.success
    assert not old_login.success  # reset really severed the binding
    assert rebind.success
