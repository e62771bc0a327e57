"""Seeded inputs for the benchmark workloads, and the benchmark's own
Matrix Market codec.

Every input is a pure function of the workload seed.  The codec shares no
code with ``involsvd.mmio``: the files the ``cli`` workload feeds to the
program, and the factor files it reads back, must not depend on the reader
and writer under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from involsvd import GeneratorSpec, StructureClass, gen_structured

SC = StructureClass
CLASSES = (SC.INVOLUTORY, SC.SKEW_INVOLUTORY, SC.CONINVOLUTORY, SC.SKEW_CONINVOLUTORY)
SIGMA_CAP = 1e4
SIGMA_FLOOR = 1.3


@dataclass(frozen=True)
class Instance:
    """One generated matrix with the spec that built it."""

    label: str
    structure: StructureClass
    spec: GeneratorSpec
    a: np.ndarray
    known_fault: bool = False


def corpus_spec(
    structure: StructureClass, n: int, rng: np.random.Generator, stratum=(0.0, 1.0)
) -> GeneratorSpec:
    """Spec drawn like the acceptance corpus at a given n.

    The pair count (unit-pair count in the skew-coninvolutory class) is
    uniform over its range, drawn within the given quantile ``stratum`` of
    it; sigmas (log-uniform in [1.3, 1e4]), the +/- split of the singles
    and, for half of the coninvolutory instances, random single phases come
    from ``rng`` as well.
    """

    def count(top):  # uniform on 0..top, restricted to the stratum
        return min(top, int(rng.uniform(*stratum) * (top + 1)))

    if structure is SC.SKEW_CONINVOLUTORY:
        nu = n // 2
        n_ones = count(nu)
        big = np.sort(10 ** rng.uniform(np.log10(SIGMA_FLOOR), np.log10(SIGMA_CAP), nu - n_ones))
        return GeneratorSpec(
            n=n,
            nu=nu,
            sigmas=tuple(big[::-1]) + (1.0,) * n_ones,
            seed=int(rng.integers(2**31)),
        )
    nu = count(n // 2)
    k = n - 2 * nu
    eta1 = int(rng.integers(0, k + 1))
    sigmas = np.sort(10 ** rng.uniform(np.log10(SIGMA_FLOOR), np.log10(SIGMA_CAP), nu))
    phases = None
    if structure is SC.CONINVOLUTORY and k and rng.random() < 0.5:
        phases = tuple(rng.uniform(0.0, 2.0 * np.pi, k))
    return GeneratorSpec(
        n=n,
        nu=nu,
        sigmas=tuple(sigmas[::-1]),
        eta1=eta1,
        eta2=k - eta1,
        phases=phases,
        seed=int(rng.integers(2**31)),
    )


def fixed_shape_spec(structure: StructureClass, n: int, rng: np.random.Generator) -> GeneratorSpec:
    """Spec with a seed-independent spectrum for the CLI inputs.

    About a tenth of the spectrum is unit (singles, or unit pairs in the
    skew-coninvolutory class) and the pair sigmas are spaced geometrically
    from 1e4 down to 1.3, so every seed asks the kernel for the same
    spectrum; only the unitary factor, the +/- split of the singles and the
    coninvolutory phases vary with ``rng``.
    """
    if structure is SC.SKEW_CONINVOLUTORY:
        nu = n // 2
        n_ones = max(1, n // 20)
        big = np.geomspace(SIGMA_CAP, SIGMA_FLOOR, nu - n_ones)
        return GeneratorSpec(
            n=n, nu=nu, sigmas=tuple(big) + (1.0,) * n_ones, seed=int(rng.integers(2**31))
        )
    k = n // 10
    if (n - k) % 2:
        k += 1
    nu = (n - k) // 2
    eta1 = int(rng.integers(0, k + 1))
    phases = None
    if structure is SC.CONINVOLUTORY:
        phases = tuple(rng.uniform(0.0, 2.0 * np.pi, k))
    return GeneratorSpec(
        n=n,
        nu=nu,
        sigmas=tuple(np.geomspace(SIGMA_CAP, SIGMA_FLOOR, nu)),
        eta1=eta1,
        eta2=k - eta1,
        phases=phases,
        seed=int(rng.integers(2**31)),
    )


def make(structure: StructureClass, spec: GeneratorSpec, label: str, known_fault=False) -> Instance:
    a, _ = gen_structured(structure, spec)
    return Instance(label, structure, spec, a, known_fault)


def corpus_instances(seed: int, sizes, copies: int = 1) -> list:
    """``copies`` instances per class and size, the i-th drawn from the
    i-th of ``copies`` equal strata of the pair count; skew-coninvolutory
    sizes are rounded up to even.  Sizes and strata are fixed so that every
    seed gives nearly the same mix of problem shapes, which keeps the
    medians from moving with the seed."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for structure in CLASSES:
        for n in sizes:
            n += n % 2 if structure is SC.SKEW_CONINVOLUTORY else 0
            for i in range(copies):
                spec = corpus_spec(structure, n, rng, (i / copies, (i + 1) / copies))
                out.append(make(structure, spec, f"{structure.value} n={n}"))
    return out


# sigma pair (1e4, 1 + 5e-5): the reciprocal pair at 1 + 5e-5 lies inside
# the unit-cluster window 1e-8 * sigma_max = 1e-4 of
# structured_svd.pairing_spectrum_check, so restructure reports nu one too
# small and eta1/eta2 one too large for every unitary factor tried
NEAR_UNIT_SIGMAS = (1e4, 1.0 + 5e-5)
NEAR_UNIT_CLASSES = (SC.INVOLUTORY, SC.SKEW_INVOLUTORY, SC.CONINVOLUTORY)


def near_unit_instances() -> list:
    """The fixed known-fault set; independent of the workload seed."""
    out = []
    for i, structure in enumerate(NEAR_UNIT_CLASSES):
        spec = GeneratorSpec(n=6, nu=2, sigmas=NEAR_UNIT_SIGMAS, eta1=1, eta2=1, seed=100 + i)
        out.append(make(structure, spec, f"{structure.value} n=6 near-unit", known_fault=True))
    return out


def fixed_shape_instances(seed: int, sizes, stream: int) -> list:
    rng = np.random.default_rng([seed, stream])
    return [
        make(structure, fixed_shape_spec(structure, n, rng), f"{structure.value} n={n}")
        for n in sizes
        for structure in CLASSES
    ]


def write_mm(path, m) -> None:
    """Dense complex Matrix Market array, entries column-major, written
    with shortest round-trip decimals."""
    m = np.asarray(m, dtype=np.complex128)
    rows, cols = m.shape
    body = "\n".join(f"{z.real!r} {z.imag!r}" for z in m.T.ravel().tolist())
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"%%MatrixMarket matrix array complex general\n{rows} {cols}\n{body}\n")


def read_mm(path) -> np.ndarray:
    """Parse a dense Matrix Market array (complex, real or integer)."""
    with open(path, "r", encoding="ascii") as handle:
        lines = [ln for ln in handle.read().splitlines() if ln.strip()]
    header = lines[0].split()
    if header[0] != "%%MatrixMarket" or header[2].lower() != "array":
        raise ValueError(f"{path}: not a dense Matrix Market array")
    field = header[3].lower()
    data = [ln for ln in lines[1:] if not ln.lstrip().startswith("%")]
    rows, cols = (int(tok) for tok in data[0].split())
    flat = np.array(" ".join(data[1:]).split(), dtype=np.float64)
    if field == "complex":
        flat = flat[0::2] + 1j * flat[1::2]
    if flat.size != rows * cols:
        raise ValueError(f"{path}: {flat.size} entries for a {rows}x{cols} matrix")
    return flat.astype(np.complex128).reshape(cols, rows).T


def read_values(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as handle:
        return np.array(handle.read().split(), dtype=np.float64)


def expected_counts(structure: StructureClass, spec: GeneratorSpec) -> tuple:
    """(nu, eta1, eta2) the paper assigns to a matrix built from ``spec``.

    Coninvolutory singles carry no sign (every one is a coneigenvector for
    coneigenvalue 1), so all of them count in eta1; the skew-coninvolutory
    class has no singles at all.
    """
    if structure is SC.CONINVOLUTORY:
        return spec.nu, spec.eta1 + spec.eta2, 0
    if structure is SC.SKEW_CONINVOLUTORY:
        return spec.nu, 0, 0
    return spec.nu, spec.eta1, spec.eta2

