"""TRUST: Continuous Remote Mobile Identity Management Using a Biometric
Integrated Touch-Display.

Full-system reproduction of Feng, Liu, Carbunar, Boumber & Shi (2012):

- :mod:`repro.core` — TRUST itself: the Fig. 6 continuous-authentication
  pipeline, identity risk (k-of-n), countermeasures, local manager and
  remote coordinator;
- :mod:`repro.flock` — the FLock trusted module (Fig. 5);
- :mod:`repro.hardware` — touchscreen + TFT sensor arrays + readout +
  power + placement (Figs. 1-4, Table II);
- :mod:`repro.fingerprint` — synthetic fingerprint substrate (synthesis,
  impressions, minutiae, matching, quality);
- :mod:`repro.net` — devices, web servers, CA, untrusted channel, the
  Fig. 9/10 protocols, identity reset/transfer;
- :mod:`repro.crypto` — from-scratch SHA-256/MD5/HMAC/DRBG/RSA/ChaCha20 +
  certificates;
- :mod:`repro.touchgen` — touch workload generation (Fig. 7);
- :mod:`repro.baselines` — password, swipe sensor, keystroke dynamics,
  cookie sessions, fuzzy vault;
- :mod:`repro.attacks` — the adversary library;
- :mod:`repro.eval` — metrics, reporting, experiment harness.

``import repro`` loads none of these; import the subpackage you use, as
the quickstart does.

Quickstart::

    from repro.eval import standard_deployment, LOGIN_BUTTON_XY
    from repro.net import TrustClient
    import numpy as np

    world = standard_deployment()
    client = TrustClient(world.device, world.server, world.channel)
    outcome = client.login(world.account, LOGIN_BUTTON_XY,
                           world.user_master, np.random.default_rng(0))
    assert outcome.success
"""

__version__ = "1.0.0"
