"""Golden output: SHA-256 of ``solve MODEL --emit ode|gb --format json``.

The digests were recorded before the descending-sweep reductions replaced
the rescanning loops (the two densest draws, ``me,lh,{2,5}`` and
``me,ll,{1,3,5}``, before the polynomial layer special-cased powers of t;
the ``se,ll,{6}`` ODE before the int-pair scalar and the Kronecker kernel
step; before RatFunc kept the power of t as an exponent, the ``se,ll,{6}``
basis, whose derivation mixes powers of t with other denominators, and
both ``se,la,{2,4,5}`` digests, an even-degree model whose denominators
are all powers of t; ``se,la,{2,4,6}`` and ``me,ll,{6}``, even-degree
derivations whose gcds have non-trivial cofactors, before ``zgcd``
returned its cofactors), so any later change to the derivation's speed is
held to byte-identical ODEs and reduced Groebner bases.

``GB_STAGE`` pins the reduced basis of the Groebner stage alone, as
``basis_digest`` of ``module_buchberger`` on the twisted generators,
recorded before the module monomials were packed into ints: a k=6 model
with half-loops here, and ``se,ll,{7}`` in ``test_acceptance``.
"""

import hashlib

import pytest

from regenum.modgb import eta_embed, module_buchberger, module_to_weyl
from regenum.models import build_generators, parse_model
from regenum.weyl import op_to_str

from test_cli import run_cli

GOLDEN = [
    ("se,ll,{2}", "ode", "75e561fb5fc4026bd6f9fcade460af5c45ea23df8e9b5ec7dd0890a06bca7a4c"),
    ("se,ll,{2}", "gb", "2884639996e4c940a992d8b4d0a0d8a576ea708c167e582aa733f75033ae6dba"),
    ("se,ll,{3}", "ode", "de098c6e62d2af2df26a67a41ad83900f606919d0a74a3057951a71bc71a7e6b"),
    ("se,ll,{3}", "gb", "db0663b8c89f1d9b852fff8d4be6cbf1acf79ca8fbf0d38414c5adb6134656fd"),
    ("se,ll,{4}", "ode", "7c58d1b4df640aa9090ff3b2c414ff9c75adad2c607df9c844c78cdfae375c76"),
    ("se,ll,{4}", "gb", "4f3152fe1fb6f3e9d5d912584ab72e6d071f2ca5683fbba14448696750c890e8"),
    ("se,ll,{5}", "ode", "233ab4d02f9728eacb7f06c36094f4e315a193b6fac84a0a6b4e61d5258ef859"),
    ("se,ll,{5}", "gb", "533412abe94c54d7ac74baacfcca70169a485acc95a16d429c8408d9ae5c02ef"),
    ("me,la,{2}", "ode", "71107525696fb5848709edc38644090310f18ec221d21533821c69d193e470ab"),
    ("me,la,{2}", "gb", "23463751a11f0f5a79b5a61315ef6dcc941850d5fd8608d766000589ffc3f54a"),
    ("se,lh,{1,2}", "ode", "3677c825cc493d0b582fc051804fb61dcdc1ba588e191c6bb210aaba215ad659"),
    ("se,lh,{1,2}", "gb", "96dcd86b2136f4e80ee3cb3967b34f53454528197ac32fbd00343238f6c34163"),
    ("se,lh,{5}", "ode", "afc6e4de96dbcc3d5787da225f5dcc5b26d8016665ba903cc34ee00f33ef52fc"),
    ("se,lh,{5}", "gb", "6a850a9bf43c7bbbdffc046c069f8403da9db329aa86aaddbaed9335ff2c4545"),
    ("me,lh,{2,5}", "ode", "ecdcb8a3d311fe4dbeae05017f0bf51d7427cf2c00c831b2ce0b05b041ce72b5"),
    ("me,lh,{2,5}", "gb", "3fe053a7d380595046f11e1b23c8a39416245fdcf835c36ed4577f80f3588aea"),
    ("me,ll,{1,3,5}", "ode", "c7b7c5695581614233cc0fc8ef86c10ecc362de05bab0efd2f584105216824bd"),
    ("me,ll,{1,3,5}", "gb", "79e2ed6b0a992710a60143751e1381a0fcadd77af9065be92872ce50e8e15b44"),
    ("se,ll,{6}", "ode", "2eff54879ab7cf6e71a2eda473188bc965e494303f5631cadc3d7c4962387aba"),
    ("se,ll,{6}", "gb", "64529a551b8ef9efe23f0b85572b94d47fd76bfb98c1790b919b640da5d6a125"),
    ("se,la,{2,4,5}", "ode", "afe37cd8d3cfec393e88ba9154efbdc5750f74abdc43e5cd6849c1a470405c8c"),
    ("se,la,{2,4,5}", "gb", "b71bb3282d0f71b0af0ae34984ad31941c60177e7dd0a9c273b64da53e4f6076"),
    ("se,la,{2,4,6}", "ode", "a87f79db71397e01c200da2df109700e2b4628bd67d7c8db710ff101e696718e"),
    ("se,la,{2,4,6}", "gb", "dfa0b02043542b61c0ea40b3d2fca06bdd3c7dce8d58a3f8af3af23fff2105f8"),
    ("me,ll,{6}", "ode", "d306406c747477a1cc6cbc94efb407d536dbe19826b67dbdd0259b4b28a34d93"),
    ("me,ll,{6}", "gb", "f65c2713b2e7552c3129db84c67874db203d9015013d94b5fc53c4aac2985557"),
]


@pytest.mark.parametrize("model,emit,digest", GOLDEN)
def test_json_digest(model, emit, digest):
    code, out, _ = run_cli(model, "--emit", emit, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


GB_STAGE = [
    ("se,lh,{2,6}", 55, "4049a34a029a9fec23fc51d7bbfb1c3f649a5661a8a6a5ec9f51393ed9dba137"),
]


def basis_digest(gb) -> str:
    """SHA-256 of the basis as operators, one line per element."""
    return hashlib.sha256("".join(op_to_str(module_to_weyl(e)) + "\n" for e in gb).encode()).hexdigest()


@pytest.mark.parametrize("model,size,digest", GB_STAGE)
def test_groebner_stage_digest(model, size, digest):
    gb = module_buchberger([eta_embed(g) for g in build_generators(parse_model(model))])
    assert len(gb) == size
    assert basis_digest(gb) == digest
