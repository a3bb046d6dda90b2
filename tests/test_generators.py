"""The random streams of ``obsorder.generators``, pinned.

Every seeded input of the suites, the acceptance criteria and the goldens
comes from these generators, so each must consume the rng in the same order
and amount, and give the same output, on every run. The expected values were
recorded from the generators of ``obsorder.harness`` (and, for
``random_uniform``, the inline draws of the library) before they moved into
their own module.

Each entry is (sha256 of the output bytes, sha256 of ``repr`` of the
bit-generator state after the call), both cut to 16 hex digits. Output
bytes are pinned only where they come from elementwise arithmetic; a QR or
SVD result depends on the LAPACK build, so for those only the state is.
"""

import hashlib

import numpy as np
import pytest

from obsorder.generators import (
    random_automorphism,
    random_hermitian,
    random_hermitians,
    random_invertible,
    random_psd,
    random_uniform,
    random_unit,
    random_unitary,
)

CALLS = {
    "uniform": random_uniform,
    "hermitian": random_hermitian,
    "unit": random_unit,
    "psd": lambda rng, d: random_psd(rng, d, d),
    "psd_rank1": lambda rng, d: random_psd(rng, d, 1),
    "psd_half": lambda rng, d: random_psd(rng, d, d // 2, (0.1, 1.0)),
    "unitary": random_unitary,
    "invertible": random_invertible,
    "automorphism": random_automorphism,
}

# (generator, seed, d) -> (output bytes or None, rng state after the call)
EXPECTED = {
    ("uniform", 0, 2): ("365006d2493ff0f7", "49e1ece906ed64b4"),
    ("uniform", 0, 5): ("621ca8b5beb2a14f", "1fdc84f88f45b273"),
    ("uniform", 0, 12): ("8e3f5d26ca0a281d", "10303828ce5732e6"),
    ("uniform", 1, 2): ("6b495c6e1a463c02", "e84096b609d65bd4"),
    ("uniform", 1, 5): ("e8d5c7acc05d0813", "60f53ee658102a77"),
    ("uniform", 1, 12): ("73f78400800e9e73", "665d416decb902c4"),
    ("hermitian", 0, 2): ("2ae21c18be713e9b", "49e1ece906ed64b4"),
    ("hermitian", 0, 5): ("a1a30faedac55988", "1fdc84f88f45b273"),
    ("hermitian", 0, 12): ("9269d77d551df9f0", "10303828ce5732e6"),
    ("hermitian", 1, 2): ("77e57d7ae79dfb91", "e84096b609d65bd4"),
    ("hermitian", 1, 5): ("144e055b68891870", "60f53ee658102a77"),
    ("hermitian", 1, 12): ("47d0c02a59b24551", "665d416decb902c4"),
    ("unit", 0, 2): ("1f49b9e575b91470", "1df894a750a46f90"),
    ("unit", 0, 5): ("5227c851148571e6", "69754d51850f60bb"),
    ("unit", 0, 12): ("06ef0bcb52aacf97", "f80e66d45830da55"),
    ("unit", 1, 2): ("b0bee15dcabc08f7", "1dd1d10baefe6717"),
    ("unit", 1, 5): ("e7e0c81321dcff90", "a1c7d04d6f0bdba1"),
    ("unit", 1, 12): ("e7349aa38e961b05", "201aad1fff793856"),
    ("psd", 0, 2): ("0d1ddebcc3bc1add", "69754d51850f60bb"),
    ("psd", 0, 5): ("bcd6cf9be230ed37", "d41734e8be604476"),
    ("psd", 0, 12): ("a2dade1f1a089388", "170f327dda62c1ab"),
    ("psd", 1, 2): ("c32163876a0c3810", "a1c7d04d6f0bdba1"),
    ("psd", 1, 5): ("b0179aa3c79ada0a", "83dc561577c2bdfd"),
    ("psd", 1, 12): ("5bf42c096620d48f", "7907b30b92ece8ca"),
    ("psd_rank1", 0, 2): ("6be06d2cbd7c604e", "3d7839a3ac495799"),
    ("psd_rank1", 0, 5): ("1923201c2113cff8", "53f9fc6d5125145d"),
    ("psd_rank1", 0, 12): ("05e0a78dbd2d8b44", "eb8c337e7f7e018b"),
    ("psd_rank1", 1, 2): ("0ad483a9e12496f7", "b88102c87640b0f8"),
    ("psd_rank1", 1, 5): ("218e9089946a9aca", "04d215a4ae2b85ae"),
    ("psd_rank1", 1, 12): ("e1c4226f5c93f27d", "3d71b574553887e4"),
    ("psd_half", 0, 2): ("af85add426921e11", "3d7839a3ac495799"),
    ("psd_half", 0, 5): ("f9a9eda927cbb55e", "8c34964a8067affe"),
    ("psd_half", 0, 12): ("e19b7c28e824d7c7", "9af19e9a945620ac"),
    ("psd_half", 1, 2): ("21ca5e84d92e2cdd", "b88102c87640b0f8"),
    ("psd_half", 1, 5): ("a676af9b0d806067", "1b743df7895b80d5"),
    ("psd_half", 1, 12): ("e0ddbe3526e3b2ed", "8cbec70dc66afb07"),
    ("unitary", 0, 2): (None, "49e1ece906ed64b4"),
    ("unitary", 0, 5): (None, "1fdc84f88f45b273"),
    ("unitary", 0, 12): (None, "8dbf1f91c1f26a97"),
    ("unitary", 1, 2): (None, "e84096b609d65bd4"),
    ("unitary", 1, 5): (None, "133062d5e561b696"),
    ("unitary", 1, 12): (None, "f45ca84c21eb3452"),
    ("invertible", 0, 2): (None, "49e1ece906ed64b4"),
    ("invertible", 0, 5): (None, "1fdc84f88f45b273"),
    ("invertible", 0, 12): (None, "8dbf1f91c1f26a97"),
    ("invertible", 1, 2): (None, "e84096b609d65bd4"),
    ("invertible", 1, 5): (None, "133062d5e561b696"),
    ("invertible", 1, 12): (None, "f45ca84c21eb3452"),
    ("automorphism", 0, 2): (None, "c95a497a234af48e"),
    ("automorphism", 0, 5): (None, "bf228b56533a7c03"),
    ("automorphism", 0, 12): (None, "f7a2ce21ba81fdbd"),
    ("automorphism", 1, 2): (None, "197bb198ca0eea7a"),
    ("automorphism", 1, 5): (None, "79d5bc052fb7bd2b"),
    ("automorphism", 1, 12): (None, "79c8579b753cf560"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name, seed, d", sorted(EXPECTED))
def test_stream_is_pinned(name, seed, d):
    rng = np.random.default_rng(seed)
    out = CALLS[name](rng, d)
    want_bytes, want_state = EXPECTED[name, seed, d]
    assert _digest(repr(rng.bit_generator.state).encode()) == want_state
    if want_bytes is not None:
        assert _digest(out.tobytes()) == want_bytes


@pytest.mark.parametrize("d", [1, 2, 32, 64])
@pytest.mark.parametrize("n", [1, 4, 20])
def test_hermitian_stack_is_single_draws_in_a_row(n, d):
    one, many = np.random.default_rng(11), np.random.default_rng(11)
    want = np.stack([random_hermitian(one, d) for _ in range(n)])
    assert random_hermitians(many, n, d).tobytes() == want.tobytes()
    assert many.uniform(-1.0, 1.0, 8).tobytes() == one.uniform(-1.0, 1.0, 8).tobytes()
