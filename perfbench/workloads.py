"""Seeded inputs, job lists and output checks for the four workloads.

Every input is produced here from the workload seed; the package only ever
receives the generated system files (through `krawtchouk.cli.main`) or the
generated matrices (through the lemma functions).

The seed picks column signs, verify seeds, sample labels and random lemma
matrices.  Column magnitudes are fixed: negating a column negates entries
without resizing any rational, so every seed costs the same arithmetic and
the run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

CHECK_ORDER = ("kcondition", "homomorphism", "transpose", "orthogonality",
               "ladder", "lie", "observables", "recurrence", "riccati",
               "leibniz", "ccr-interior")
GENERATE_TARGETS = "phi,B,weights,Dbar,operators"

# Level sweeps.  Level 0 is left out: `lie` reports `skipped` there, and an
# exact job passes only when every check reports `pass`.
VERIFY_EXACT = (
    ("binomial_half", (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16)),
    ("binomial_third", (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15)),
    ("trinomial", (1, 2, 3, 4, 5, 6)),
    ("hadamard3", (1, 2, 3)),
)
# rotation from level 7 and the float trinomial from level 7 are levels where
# the float route reports false failures; they stay in and count as failed.
FLOAT_VERIFY = (
    ("rotation", tuple(range(1, 13))),
    ("trinomial", tuple(range(1, 10))),
    ("hadamard3", (1, 2, 3, 4, 5)),
)
SAMPLE_JOBS = (("rotation", 12), ("rotation", 6), ("trinomial", 8),
               ("trinomial", 5), ("hadamard3", 6), ("hadamard3", 4))
SAMPLE_TRIALS = 40000
SAMPLE_SIGMAS = 6.0
GENERATE = (
    ("trinomial", (1, 2, 3, 4, 5, 6, 7, 8, 9)),
    ("hadamard3", (1, 2, 3, 4, 5)),
)
LEMMA_DIMS = (1, 2, 3)
LEMMA_LEVELS = (1, 2, 3, 4)
LEMMA_PAIRS = 20

MAGNITUDES = (Fraction(3, 2), Fraction(2, 3), Fraction(3, 2))

WORKLOADS = ("verify-exact", "induced-lemmas", "float-sample", "generate-tables")


@dataclass
class Job:
    name: str
    kind: str                    # verify | generate | sample | homomorphism | transpose
    system: str = ""             # name of the canonical file in systems/
    level: int = 0
    exact: bool = True
    argv: list = field(default_factory=list)
    args: tuple = ()
    scales: tuple = ()           # column scaling c_1..c_d applied to the canonical system
    out_dir: str = ""
    expected: float = 0.0        # sample jobs: exact value of the Gram entry
    trials: int = 0


def _rational(value) -> Fraction:
    return Fraction(value) if isinstance(value, (int, Fraction)) else Fraction(str(value))


def fmt_rational(value: Fraction) -> str:
    num, den = value.numerator, value.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def load_canonical(root: Path, name: str) -> dict:
    return json.loads((root / "systems" / f"{name}.json").read_text())


def _exact_parts(doc: dict):
    A = [[_rational(x) for x in row] for row in doc["A"]]
    p = [_rational(x) for x in doc["p"]]
    return A, p


def scaled_exact_doc(doc: dict, scales) -> dict:
    A, _ = _exact_parts(doc)
    rows = [[row[0]] + [row[j] * scales[j - 1] for j in range(1, len(row))] for row in A]
    return {"d": doc["d"], "A": [[fmt_rational(x) for x in row] for row in rows], "p": doc["p"]}


def float_doc(doc: dict, signs) -> dict:
    """Float system file: the orthogonal O = sqrt(p) A D^(-1/2), columns signed."""
    if "orthogonal" in doc:
        O = [[float(x) for x in row] for row in doc["orthogonal"]]
        D = [float(x) for x in doc["D"]]
    else:
        A, p = _exact_parts(doc)
        n = len(p)
        Dq = [sum(p[l] * A[l][j] ** 2 for l in range(n)) for j in range(n)]
        O = [[math.sqrt(float(p[l])) * float(A[l][j]) / math.sqrt(float(Dq[j]))
              for j in range(n)] for l in range(n)]
        D = [float(x) for x in Dq]
    O = [[row[0]] + [row[j] * signs[j - 1] for j in range(1, len(row))] for row in O]
    return {"d": doc["d"], "orthogonal": O, "D": D}


def _signs(rng: random.Random, d: int) -> tuple:
    return tuple(rng.choice((-1, 1)) for _ in range(d))


def _exact_scales(rng: random.Random, d: int) -> tuple:
    return tuple(s * MAGNITUDES[j] for j, s in enumerate(_signs(rng, d)))


def _write_doc(path: Path, doc: dict, blob: list) -> str:
    text = json.dumps(doc, indent=1) + "\n"
    path.write_text(text)
    blob.append(text)
    return str(path)


def _labels(d: int, N: int):
    """Degree-N multi-indices in d+1 slots, in the package's dictionary order."""
    def comps(total, slots):
        if slots == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for tail in comps(total - head, slots - 1):
                yield (head,) + tail
    return list(comps(N, d + 1))


def make_jobs(workload: str, seed: int, root: Path, tmp: Path, matrix_cls=None):
    """Jobs for one run and the bytes they were generated from.

    Same seed, same bytes: the determinism self-check compares the second
    value across processes and across seeds.
    """
    rng = random.Random(f"{workload}:{seed}")
    blob: list = [workload, str(seed)]
    jobs: list[Job] = []
    inputs = tmp / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)

    if workload == "verify-exact":
        for name, levels in VERIFY_EXACT:
            doc = load_canonical(root, name)
            for N in levels:
                scales = _exact_scales(rng, doc["d"])
                path = _write_doc(inputs / f"{name}-{N}.json", scaled_exact_doc(doc, scales), blob)
                vseed = rng.randrange(2 ** 31)
                argv = ["verify", "--system", path, "--level", str(N),
                        "--checks", "all", "--seed", str(vseed)]
                blob.append(" ".join(argv[3:]))
                jobs.append(Job(f"verify {name} N={N}", "verify", name, N, True, argv,
                                scales=scales))
    elif workload == "float-sample":
        for name, levels in FLOAT_VERIFY:
            doc = load_canonical(root, name)
            for N in levels:
                path = _write_doc(inputs / f"float-{name}-{N}.json",
                                  float_doc(doc, _signs(rng, doc["d"])), blob)
                vseed = rng.randrange(2 ** 31)
                argv = ["verify", "--system", path, "--level", str(N),
                        "--checks", "all", "--seed", str(vseed)]
                blob.append(" ".join(argv[3:]))
                jobs.append(Job(f"verify float {name} N={N}", "verify", name, N, False, argv))
        for k, (name, N) in enumerate(SAMPLE_JOBS):
            canonical = load_canonical(root, name)
            doc = float_doc(canonical, _signs(rng, canonical["d"]))
            path = _write_doc(inputs / f"sample-{k}.json", doc, blob)
            d = doc["d"]
            # Labels of degree 1 or 2 only: the products of higher-degree
            # polynomials are so heavy-tailed that the sample standard error
            # understates the true one (rotation at N = 12, degree 5: 22
            # against 140) and the 6-sigma band would misfire.
            labels = [m[1:] for m in _labels(d, N) if 1 <= N - m[0] <= 2]
            m = rng.choice(labels)
            n = m if k % 2 == 0 else rng.choice([x for x in labels if x != m])
            expected = 0.0
            if m == n:
                # squared norm of label n: multinomial(N - |n|, n) * prod D_j^(n_j)
                multinom = math.factorial(N) // math.factorial(N - sum(n))
                for e in n:
                    multinom //= math.factorial(e)
                expected = multinom * math.prod(doc["D"][j + 1] ** e for j, e in enumerate(n))
            sseed = rng.randrange(2 ** 31)
            argv = ["sample", "--system", path, "--level", str(N),
                    "--m", ",".join(map(str, m)), "--n", ",".join(map(str, n)),
                    "--trials", str(SAMPLE_TRIALS), "--seed", str(sseed)]
            blob.append(" ".join(argv[3:]))
            jobs.append(Job(f"sample float {name} N={N}", "sample", name, N, False, argv,
                            expected=expected, trials=SAMPLE_TRIALS))
    elif workload == "generate-tables":
        for name, levels in GENERATE:
            doc = load_canonical(root, name)
            for N in levels:
                for fmt in ("json", "csv"):
                    scales = _exact_scales(rng, doc["d"])
                    path = _write_doc(inputs / f"gen-{name}-{N}-{fmt}.json",
                                      scaled_exact_doc(doc, scales), blob)
                    out = tmp / "out" / f"{name}-{N}-{fmt}"
                    argv = ["generate", "--system", path, "--level", str(N),
                            "--targets", GENERATE_TARGETS, "--out", str(out)]
                    if fmt == "csv":
                        argv += ["--format", "csv", "--rational-csv"]
                    jobs.append(Job(f"generate {name} N={N} {fmt}", "generate", name, N, True,
                                    argv, scales=scales, out_dir=str(out)))
    elif workload == "induced-lemmas":
        # The magnitudes come from one fixed stream; the seed picks signs
        # A1' = S1 A1 T, A2' = T A2 S2 with diagonal sign matrices.  Every
        # induced entry and every partial sum then only changes sign, so all
        # seeds cost the same while the matrices differ.
        base = random.Random("induced-lemmas")
        for d in LEMMA_DIMS:
            size = d + 1
            for N in LEMMA_LEVELS:
                for k in range(LEMMA_PAIRS):
                    A1 = [Fraction(base.randint(-2, 2), base.randint(1, 2))
                          for _ in range(size * size)]
                    A2 = [Fraction(base.randint(-2, 2), base.randint(1, 2))
                          for _ in range(size * size)]
                    S1, T, S2 = (_signs(rng, size) for _ in range(3))
                    A1 = [A1[r * size + c] * S1[r] * T[c] for r in range(size) for c in range(size)]
                    A2 = [A2[r * size + c] * T[r] * S2[c] for r in range(size) for c in range(size)]
                    blob.append(f"{d} {N} " + " ".join(fmt_rational(x) for x in A1 + A2))
                    if matrix_cls is not None:
                        M1 = matrix_cls(size, size, A1)
                        M2 = matrix_cls(size, size, A2)
                        jobs.append(Job(f"homomorphism d={d} N={N} #{k}", "homomorphism",
                                        level=N, args=(M1, M2, N)))
                        jobs.append(Job(f"transpose d={d} N={N} #{k}", "transpose",
                                        level=N, args=(M1, N)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    digest = hashlib.sha256("\n".join(blob).encode()).hexdigest()
    return jobs, digest
