"""Golden digests of the suite programs' initial memory images.

Each digest is sha256 over the sorted ``addr=repr(value)`` lines of the
memory a freshly constructed machine starts from, so any change to how a
program stores, builds or hands over its initial contents that moves one
word (or turns an ``int`` into an equal ``bool`` or ``float``) fails here.
The image is read through :class:`VoltronMachine` on a one-op HALT core
stub per function, which needs no compile and no profile run.
"""

import hashlib

import pytest

from repro.arch import mesh
from repro.isa.machinecode import CompiledProgram, CoreBlock, CoreFunction
from repro.isa.operations import Opcode, make_op
from repro.sim import VoltronMachine
from repro.workloads.suite import BENCHMARKS, build


def image_digest(program) -> str:
    compiled = CompiledProgram(program, 1)
    for name in program.functions:
        function = CoreFunction(name, "entry")
        function.add_block(CoreBlock("entry", slots=[make_op(Opcode.HALT, [], [])]))
        compiled.add_function(0, function)
    image = VoltronMachine(compiled, mesh(1)).memory.as_dict()
    lines = "\n".join(f"{addr}={image[addr]!r}" for addr in sorted(image))
    return hashlib.sha256(lines.encode()).hexdigest()


#: Recorded at seed 1 before the per-array image storage existed.
GOLDEN = {
    '052.alvinn': '8fd11c20a2f3cef1c8e3f07259d1bad89c26786afdfc20b7440efb694e386c7b',
    '056.ear': '7059e7406ec3655b643af0d14991e15bb368b08ed3cc61acd43a97ead1f888e4',
    '132.ijpeg': '257fade01e6f69ec11e2c899966de3e470eb5c2384913de5cc1a138c6f1dc99e',
    '164.gzip': '044e0beb6b6008d1b7c031f4de9acf287398783f9ed8865d75f9829f7e4c7ab3',
    '171.swim': '07580002c147b501cead09286c04fbf542ff3a73dc77fd5a6c1be7d18ea1d78e',
    '172.mgrid': 'd7ddf5824ab03a4116d64467c7766b45aeccc0ac4122c761847a5e0aa14f9eb6',
    '175.vpr': '0204634c3b62f22acdf06cd22058719ddb9712a3e56b17829daade97bd2891d0',
    '177.mesa': 'ee2acba798d04da9c143af2990589ef39c792f885ff6163666ffc7908ca63239',
    '179.art': '5aaaef9c9ff6d70caa58d3f04488e26b15c1e38b8d0edd10e7689ced60a282bc',
    '183.equake': 'a4d352cd2ac9bf1e7ffe98028237d07ab3508ed90e267bef0fb95d8208101f74',
    '197.parser': '7cbdb4d88b14f9dbac9f78347f4379454dccca27360e1313ccc683a127af3d7c',
    '255.vortex': 'b64d4523fb6a083f9c24cccf22c32ef19a985972985a44b7282645ba9dfbe6c9',
    '256.bzip2': '3b4c68b965ce742e8e90186008a2de260250eb4abfb724232e30d8e0253eba74',
    'cjpeg': '2dc716f0ca22dd901ecb0adeb64389ec5bf9a761f2661b1e0abbc64106ab142c',
    'djpeg': '914066dcd96bfb2e4c60e86d7bd71bf2b1f5709e2267ef9a6e8bd8791c144302',
    'epic': 'f1323b3f181014d598881403fe996ce207ecae374c5a08e9c1adbb4ebec68f4b',
    'g721decode': '7b912c933e66dc792682e83b7d3e3a3a22d08d6e36809bea58b0825c61c96e8c',
    'g721encode': 'ede2f0addd337a3ecc7592eb108092ad98dd3406f6e78c377e01875f7c19a4ff',
    'gsmdecode': 'e23cac52b03a264d38008b93f5a4b6bcc7ec6b59f8528d45cd8378824a47c8cd',
    'gsmencode': '90238dc3e072aa4850b73c22b45e2cfffa941b6846e900aa847ba24af87d8329',
    'mpeg2dec': 'b848f7104784e28286fd84b48b97f63935976ddda6a2ba07927849a50823a88d',
    'mpeg2enc': 'c7e17a0bafcdffacf563734d177a17ab382c3681894aa0e7c8d6fed4362ac3a1',
    'rawcaudio': '987b96130bab1e7e2f7cfd4da136b85cb00c4b3767a307328147c420c50727f7',
    'rawdaudio': '8e182985c6f20505c8b7d2cdfcf7ad83d9f3fabe3f74e24eb065669c75a68801',
    'unepic': '2edb18c321b297d2c5eaa76e918adde3e11107e2b3cf3e827c788de0c9cb2558',
}


@pytest.mark.parametrize("name", BENCHMARKS)
def test_memory_image_matches_golden(name):
    assert image_digest(build(name).program) == GOLDEN[name]
