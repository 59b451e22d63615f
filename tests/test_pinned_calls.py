"""The pinned CLI calls: exact output bytes of the slow calls, each within its time bound.

Each row is one call of ``python -m quivermoduli.cli`` in a fresh process:
its argv, the problem it reads on stdin (if any), its exit code, the sha256
of its raw stdout bytes and the seconds it may take. A new pin is one row,
with its digest recorded at the commit before the change it guards and the
reason for the pin in a comment over its group.
"""

import hashlib
import json
import subprocess

import pytest
from test_cli import _cli_process

# a refusal writes nothing to stdout
NOTHING = hashlib.sha256(b"").hexdigest()

# no swap of vertices fixes Q_A = [[0,2,1],[1,0,3],[2,1,0]] or Q_S = [[1,2,1],[2,0,3],[1,3,0]];
# Q_P = [[1,0,1],[1,0,2],[0,2,0]] and Q_N = [[1,0,1],[2,0,2],[0,2,0]] with theta = (0,2,-2)
# make the kernel test pivot at vertex 1; K3 is the quiver of two vertices and 3 arrows
PROBLEMS = {
    "Q_A(3,4,5)": '{"arrows": [[0,2,1],[1,0,3],[2,1,0]], "dimension": [3,4,5], "stability": [0,0,0]}',
    "Q_S(3,4,5)": '{"arrows": [[1,2,1],[2,0,3],[1,3,0]], "dimension": [3,4,5], "stability": [0,0,0]}',
    "K3(20,21)": '{"arrows": [[0, 3], [0, 0]], "dimension": [20, 21], "stability": [0, 0]}',
    "Q_A(6,7,8),(15,-6,0)": (
        '{"arrows": [[0,2,1],[1,0,3],[2,1,0]], "dimension": [6,7,8], "stability": [15,-6,0]}'
    ),
    "Q_A(4,5,6)": '{"arrows": [[0,2,1],[1,0,3],[2,1,0]], "dimension": [4,5,6], "stability": [0,0,0]}',
    "Q_S(2,3,4),deformed(4,4,-5)": (
        '{"arrows": [[1,2,1],[2,0,3],[1,3,0]], "dimension": [2,3,4], "stability": [0,0,0],'
        ' "deformed_stability": [4,4,-5]}'
    ),
    "Q_A(8,9,10),(19,-8,0)": (
        '{"arrows": [[0,2,1],[1,0,3],[2,1,0]], "dimension": [8,9,10], "stability": [19,-8,0]}'
    ),
    "Q_A(6,7,8)": '{"arrows": [[0,2,1],[1,0,3],[2,1,0]], "dimension": [6,7,8], "stability": [0,0,0]}',
    "Q_A(6,6,6),(1,0,-1)": (
        '{"arrows": [[0,2,1],[1,0,3],[2,1,0]], "dimension": [6,6,6], "stability": [1,0,-1]}'
    ),
    "Q_P(1,2,2),(0,2,-2)": (
        '{"arrows": [[1,0,1],[1,0,2],[0,2,0]], "dimension": [1,2,2], "stability": [0,2,-2]}'
    ),
    "Q_N(1,2,2),(0,2,-2)": (
        '{"arrows": [[1,0,1],[2,0,2],[0,2,0]], "dimension": [1,2,2], "stability": [0,2,-2]}'
    ),
    # T = [[0,1,1],[1,0,1],[1,1,0]] after vertices that d does not use
    "0^4+T(3,4,5)": (
        '{"arrows": [[0,0,0,0,0,0,0],[0,0,0,0,0,0,0],[0,0,0,0,0,0,0],[0,0,0,0,0,0,0],'
        '[0,0,0,0,0,1,1],[0,0,0,0,1,0,1],[0,0,0,0,1,1,0]],'
        ' "dimension": [0,0,0,0,3,4,5], "stability": [0,0,0,0,0,0,0]}'
    ),
    "0^3+T(6,7,8)": (
        '{"arrows": [[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],'
        '[0,0,0,0,1,1],[0,0,0,1,0,1],[0,0,0,1,1,0]],'
        ' "dimension": [0,0,0,6,7,8], "stability": [0,0,0,0,0,0]}'
    ),
    # 1,100 vertices, one arrow each way between the first two, d = (1,1,0,...,0)
    "wide(1,1,0^1098)": json.dumps(
        {
            "arrows": [[int({i, j} == {0, 1}) for j in range(1100)] for i in range(1100)],
            "dimension": [1, 1] + [0] * 1098,
            "stability": [0] * 1100,
        }
    ),
}

# (argv, name of the problem on stdin or None, exit code, sha256 of stdout, seconds)
PINS = [
    # digest recorded from the unpruned eta search, which needs about 69 s on this input
    ("deform --example levi_adjoint:8 --json", None, 0,
     "16dc0c5db6267f6eb543e5bd5d210a4fdd742e6d4077d179e718b359012f0ae7", 20),
    # all vertices of levi_adjoint(l) are interchangeable, and the search walks only
    # heads sorted within that class; digests recorded from the walk over every head,
    # which took about 1.4 s on (9) and 6.5-9.6 s on (10)
    ("deform --example levi_adjoint:9 --json", None, 0,
     "63cda75c3d83f3dd7c9af9577725dc7a1e478ab2f059ad0e694bc85397202b36", 5),
    ("deform --example levi_adjoint:10 --json", None, 0,
     "7e005cf333ca9250a0ed837ae54a3552f0a15335923ebb2379082c8dca2e0c66", 5),
    # vertices with d_i = 0 in front of T: the search walks only the support of d and
    # the last vertex off it; digests recorded from the walk over every vertex, which
    # took about 13 s on the first and 65 s on the second; the search on 1,100 vertices
    # raised RecursionError there, and these digests come from it under a raised limit
    ("deform - --json", "0^4+T(3,4,5)", 0,
     "cce2198d05bb91129a790fabb9e4ecb0dc46d163ad23685396ccb799374ad1c9", 5),
    ("deform - --json", "0^3+T(6,7,8)", 0,
     "a40eeca56bfd95ead4cba99f5d25c7138d6175048322a4c4ee3bea5a6cd2712e", 5),
    ("deform - --json", "wide(1,1,0^1098)", 0,
     "cb6b5d787804bb42d4368f110c92aee6169dcdfd3f8501ca9ec66d99f765df66", 5),
    ("strata - --json", "wide(1,1,0^1098)", 0,
     "7f1e19cc19c139bb9cd3cd447714317380c1f2cd9dac22eb5670ec77aea89172", 5),
    ("smallness - --json", "wide(1,1,0^1098)", 0,
     "bbd31492d4acc0a87c49b2ffa1e6f3b82ff6bc1d7a1a0616a4e02e40190286d7", 5),
    # the deformation (r, -1) of d = (1, r) for r = 7 and 8: every eta vanishing on
    # (1, r) has sup-norm at least r; the search bound follows from d, and these calls
    # exited 2 under a fixed bound of 6; whole-output digests recorded when they
    # replaced a check of the deformed_stability field alone
    ("deform --example determinantal:7,7 --json", None, 0,
     "bad5289b18753b3a8988145a388de6dab1ee0f93e0d97da3e5d4e428b9552a2f", 20),
    ("deform --example determinantal:8,8 --json", None, 0,
     "f1fe8e7d565de57e19afa1d2dc7cec0ceb1102aa7e3ff553c84889b4efcc7feb", 20),
    ("strata --example levi_adjoint:1,8 --json", None, 0,
     "0e1671d1828fc2d950b224d4908f28a29f55051c10891b95e9b7ee888d61ed4a", 20),
    # levi_adjoint(8): 4,140 rows, 5.8 MB each; digests recorded before the rows and
    # the --json writer were rewritten
    ("strata --example levi_adjoint:8 --json", None, 0,
     "dbbbcd575570502857c679b6ad2932f8a97a0113fff1abb51e636039d67eb948", 20),
    ("smallness --example levi_adjoint:8 --json", None, 0,
     "bfb84cdc361c1d76876c9216435af282b4ad5e637611a55bc2b155bb85418353", 20),
    # levi_adjoint(9): 21,147 rows, 34 MB each; digests recorded before the local data
    # was shared per Gram matrix and the rows were written as text
    ("strata --example levi_adjoint:9 --json", None, 0,
     "45656511ec475fedd8ecb92b4114ac2a7dfd5880ea3c8f002318905d2b8abc76", 20),
    ("smallness --example levi_adjoint:9 --json", None, 0,
     "d3ee2a4260cb430624fb631e671e0bd8f736c6c71327be673a36a0bcdf33c582", 20),
    # levi_adjoint(4,3,3): 1,429 rows with multiplicities up to 4, so the walk repeats
    # a part, which the all-ones levi_adjoint(8) and (9) never do; digests recorded
    # before the walk packed its parts into integers
    ("strata --example levi_adjoint:4,3,3 --json", None, 0,
     "f53c04f8cfc85f2d4a554824c11e4e63151e42384b0bfac1218723e195079998", 20),
    ("smallness --example levi_adjoint:4,3,3 --json", None, 0,
     "4020d0c0b2296f03edbc97563bf1d318caba9cefa4fdb9a4ac2e27395eac30fc", 20),
    # the human-readable view; digests recorded before it was written by the --json
    # writer in its one-line layout
    ("strata --example levi_adjoint:8", None, 0,
     "12073d458ab822c1a64b42fa665ad86057e9a5a178a4a8241368215e7ec4eb12", 20),
    ("smallness --example levi_adjoint:8", None, 0,
     "91c58c86ccdeefcd2f996b978776186ca85677fd501a2d50e4227e3c953cf2a2", 20),
    ("strata --example levi_adjoint:9", None, 0,
     "a61a1aa155e6dd15dc741e77720e0d319a33e9ec3e4d0e6590ec39ab4e0b97c4", 20),
    ("smallness --example levi_adjoint:9", None, 0,
     "9ddbf181b4bcc28f65ec43970c74d46bd5e0f18ddc560ec5481e210581e3eb2d", 20),
    # every other strata pin is a levi_adjoint problem, where no filter fires; on Q_A
    # 6,014 rows meet all three filter reasons, and on Q_S smallness certifies 6,014
    # rows; digests recorded before the CLI left its rare argv to argparse
    ("strata - --json", "Q_A(3,4,5)", 0,
     "b4c1d45cb0a53c62c2ed45e498667e4508056df59571bdf634dc1ff1630ab18e", 20),
    ("strata - --json", "Q_S(3,4,5)", 0,
     "9d3dde7312b857aff570d5a61d5c51320d15a5ec6bdabd5e009bf413bbd20b40", 20),
    ("smallness - --json", "Q_S(3,4,5)", 0,
     "96c6171b92636b40c1722de457922bebb1f315c5d3c6d217c4d27ed607e770e5", 20),
    # 4.4 * 10^8 types on two vertices with 3 arrows, theta = 0: 461 candidate parts
    # pass the 1,000-candidate guard, so the walk must refuse it at type 25,001
    ("strata - --json", "K3(20,21)", 2, NOTHING, 5),
    # digest recorded before the HN recursion and the DT log walked the sub-box of
    # each cell, when this input took about 21 s in-process
    ("ic --example points:10,5 --json", None, 0,
     "9f599a1b0627f7b8da03d0b3883225ff463e51c741d2063e8d06359df65b4e9e", 20),
    # digests recorded from the walk over every cell of the box, before the recursions
    # ran over orbits of interchangeable vertices: about 14 s on points(11,5) and 61 s
    # on levi_adjoint(14)
    ("ic --example points:11,5 --json", None, 0,
     "f17979b536a2ecf863d1dbc1750e18289bd39a22c1674c924e05eec537c4eb3d", 5),
    ("ic --example levi_adjoint:14 --json", None, 0,
     "e5a5dd9249a09769998c55c7fc25a31677309472bc4411caf2a19a41e804b3b0", 5),
    # every other pin is orbit-compressed; on Q_A and Q_S no two vertices are
    # interchangeable, so the recursions keep every cell; ic is given a deformed
    # stability, so it runs both routes; digests recorded before the results were
    # finished in integers, with no Fraction in between
    ("pd - --json", "Q_A(6,7,8),(15,-6,0)", 0,
     "9faeec37b3dc39d5b0c44e56097544d0d6e4fa70927a32007a961be2adcb92c7", 20),
    ("betti - --json", "Q_A(6,7,8),(15,-6,0)", 0,
     "2c51cde0e3f00a4c7490d7cb6864d9ce5a927cd5f5a15b028c6b5c36b20b841a", 20),
    ("dt - --json", "Q_A(4,5,6)", 0,
     "c83eea929ee21cf7a626dd3cfa7bd42e90caa0f8f7809b0c1f18e1918eb5b663", 20),
    ("ic - --json", "Q_S(2,3,4),deformed(4,4,-5)", 0,
     "9a53106061854368f54f962b7462ab452afe9f24f295f3aebd98c5a9d9a046a6", 20),
    # the recursions run on polynomials packed at a width fixed per call from |d|;
    # the pins above are where that width is smallest, and a width too small would
    # first decode wrong bytes here: |d| = 27 for pd and betti, and the DT log at
    # |d| = 21; digests recorded before the recursions were packed, when these calls
    # took 13-19 s
    ("pd - --json", "Q_A(8,9,10),(19,-8,0)", 0,
     "b8005d95f6e0b314510aa7c4a2e897979e73e38a2189a364f76e8f9f1f4315d0", 20),
    ("betti - --json", "Q_A(8,9,10),(19,-8,0)", 0,
     "a96a058f647b98538665cfd3450b2ec7f4cafb0e7bcf530d13a67c5d1d263ba1", 20),
    ("dt - --json", "Q_A(6,7,8)", 0,
     "326a4145aabb6ac1a6e52c049a89addf85c382b77641d7bf50a6aee0b40aa916", 20),
    # every other dt pin has theta = 0, where each numerator G is a monomial; here the
    # Moebius terms m = 2, 3 and 6 of each DT value run over numerators that are not;
    # digest recorded while the DT values were still finished by products of
    # {power: int} dicts
    ("dt - --json", "Q_A(6,6,6),(1,0,-1)", 0,
     "bb24d5ad792262c6c729a68d1ef0be7ea932aad144f27e6c5fd6e3db990e8a33", 20),
    # every other pinned kernel verdict has theta = 0 or theta_0 != 0; the form is
    # symmetric on the kernel for Q_P, not for Q_N, so ic refuses Q_N; digests
    # recorded while the kernel test built a gcd combination of the weights
    ("info - --json", "Q_P(1,2,2),(0,2,-2)", 0,
     "9dd36be9ca3eedcbc69fbc6a77e5c99b26de1b8cce60a73a80aef10867540b1d", 20),
    ("ic - --json", "Q_P(1,2,2),(0,2,-2)", 0,
     "2b7d24d81b36959108aba85e50444210e14e54b45c788d9d34d6f446a7a79d19", 20),
    ("smallness - --json", "Q_P(1,2,2),(0,2,-2)", 0,
     "46d996ab440ee549176a31f1e2ddcbc30bf52106c08ef022947565a26702a44c", 20),
    ("info - --json", "Q_N(1,2,2),(0,2,-2)", 0,
     "80a475a6ba468f4cbca63de467451394edf81af1b9018ccb906332b2a8c6afeb", 20),
    ("smallness - --json", "Q_N(1,2,2),(0,2,-2)", 0,
     "d31606ccdf62367d4b3cba608af4ae6bfa86c5e70e050792334a8b240ce113c8", 20),
    ("ic - --json", "Q_N(1,2,2),(0,2,-2)", 2, NOTHING, 20),
]


@pytest.mark.parametrize(
    "argv, problem, code, digest, seconds",
    PINS,
    ids=[argv + (f" < {problem}" if problem else "") for argv, problem, *_ in PINS],
)
def test_pinned_call(argv, problem, code, digest, seconds):
    process = _cli_process(argv.split(), subprocess.PIPE, stdin=subprocess.PIPE, text=False)
    stdin = (PROBLEMS[problem] + "\n").encode() if problem else b""
    try:
        out, err = process.communicate(stdin, timeout=seconds)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        pytest.fail(f"no answer within {seconds} s")
    assert (process.returncode, hashlib.sha256(out).hexdigest()) == (code, digest), err
    if code:
        assert err.count(b"\n") == 1 and err.endswith(b"\n"), err
    else:
        assert err == b""
