"""The package's export list, its runtime dependencies, the size rule of its
public entries and the records of its table builds."""

import importlib
import itertools
import logging
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qperm
from qperm import (
    CumulantSpec,
    MomentFunctional,
    SetPartition,
    UrnModel,
    cesaro_variance,
    definetti_gap,
    dk_value,
    enumerate_nc,
    enumerate_partitions,
    freeness_check,
    gram,
    haar_moment,
    invariance_check,
    permutation_deviation,
    two_projection_magic_unitary,
    weingarten,
    weingarten_asymptotics,
)
from qperm.errors import DomainError
from qperm.exchange import line_projection
from qperm.weingarten import check_inverse

PARTITIONS = importlib.import_module("qperm.partitions")
# the package exports a function named weingarten, which hides the module
WEINGARTEN = importlib.import_module("qperm.weingarten")
EXCHANGE = importlib.import_module("qperm.exchange")


def test_every_exported_name_resolves():
    assert len(set(qperm.__all__)) == len(qperm.__all__)
    assert [name for name in qperm.__all__ if not hasattr(qperm, name)] == []


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from qperm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qperm.__all__)


# The modules loaded before the recording (site hooks may load packages of
# their own) are subtracted, so only what qperm brings in is counted.
DEPENDENCY_PROBE = """
import sys
start = set(sys.modules)
import qperm.cli
code = qperm.cli.main(["reproduce-all", "--k-max", "2", "--n-range", "4..4"])
loaded = sorted({name.partition(".")[0] for name in set(sys.modules) - start})
print(code, *loaded, file=sys.stderr)
"""


def test_numpy_is_the_only_runtime_dependency():
    proc = subprocess.run(
        [sys.executable, "-c", DEPENDENCY_PROBE],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(qperm.__file__).parents[1])},
    )
    code, *loaded = proc.stderr.splitlines()[-1].split()
    assert code == "0", proc.stderr
    assert "numpy" in loaded and "qperm" in loaded
    outside = [m for m in loaded if m not in sys.stdlib_module_names | {"numpy", "qperm"}]
    assert outside == []


def clear_memos():
    """Empty every memo table of the package, so the next call is cold."""
    for name, module in list(sys.modules.items()):
        if name.startswith("qperm."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and obj.__module__ == name:
                    obj.cache_clear()


SEMICIRCLE = CumulantSpec(("c",), 4, {("c", "c"): Fraction(1)})
ZERO2, ONE2 = SetPartition.singletons(2), SetPartition.full(2)
# independent symmetric coins on the labels 1..4, to length 2
LABELS = MomentFunctional((1, 2, 3, 4), 2, {
    **{(i,): 0 for i in range(1, 5)},
    **{(i, j): int(i == j) for i, j in itertools.product(range(1, 5), repeat=2)},
})
LINE = two_projection_magic_unitary(np.diag([1, 0]), line_projection(3, 4))

# (entry and size, the size as an int, the call with that size)
SIZED_CALLS = [
    ("haar_moment n", 5, lambda s: haar_moment(s, (1, 2), (1, 2))),
    ("gram k", 2, lambda s: gram(s, 4)),
    ("gram n", 4, lambda s: gram(2, s)),
    ("weingarten k", 2, lambda s: weingarten(s, 5)),
    ("weingarten n", 5, lambda s: weingarten(2, s)),
    ("check_inverse k", 3, lambda s: check_inverse(s, 5)),
    ("check_inverse n", 5, lambda s: check_inverse(3, s)),
    ("dk_value k", 2, lambda s: dk_value(s, [5])),
    ("dk_value n", 5, lambda s: dk_value(2, [s])),
    ("weingarten_asymptotics k", 2, lambda s: weingarten_asymptotics(s, [4, 5], ZERO2, ONE2)),
    ("weingarten_asymptotics n", 5, lambda s: weingarten_asymptotics(2, [4, s], ZERO2, ONE2)),
    ("enumerate_nc k", 4, enumerate_nc),
    ("enumerate_partitions k", 4, enumerate_partitions),
    ("UrnModel n", 6, lambda s: definetti_gap(UrnModel(s, [1, 1, 1, 0, 0, 0]), (1, 2, 1, 2))),
    ("cesaro_variance n", 5, lambda s: cesaro_variance(SEMICIRCLE, s)),
    ("SetPartition.full k", 3, SetPartition.full),
    ("SetPartition.singletons k", 3, SetPartition.singletons),
    ("MomentFunctional k_max", 2, lambda s: MomentFunctional(("a",), s, {("a",): Fraction(1)})),
    ("CumulantSpec k_max", 2, lambda s: CumulantSpec(("c",), s, {("c", "c"): Fraction(1)})),
    ("invariance_check max_degree", 2, lambda s: invariance_check(LABELS, LINE, s)),
    ("permutation_deviation max_degree", 2, lambda s: permutation_deviation(LABELS, s)),
    ("freeness_check max_degree", 2,
     lambda s: freeness_check(LABELS, {1: 1, 2: 1, 3: 2, 4: 2}, max_degree=s)),
]


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
@pytest.mark.parametrize("entry,size,call", SIZED_CALLS, ids=[c[0] for c in SIZED_CALLS])
def test_sizes_are_admitted_before_any_memo_lookup(entry, size, call, cold):
    # 4.0 == 4 as a memo key, so a size admitted late answers by what is cached
    name = entry.split()[-1]
    if cold:
        clear_memos()
    else:
        call(size)
    with pytest.raises(DomainError, match=rf"^{name}={size}\.0 must be an integer$"):
        call(float(size))
    if cold:
        clear_memos()
    assert call(np.int64(size)) == call(size)


MODEL = UrnModel(5, [1, Fraction(1, 3), 0, 0, -1])

# (kind, builder, what the build reads from other memo tables, the cold
# build, the record's text before " seconds=")
BUILDS = [
    ("NC order", "_nc_order_data", lambda: None,
     lambda: PARTITIONS._nc_order_data.__wrapped__(4), r"NC order k=4 N=14"),
    ("mobius column", "_mobius_column", lambda: PARTITIONS._nc_order_data(4),
     lambda: PARTITIONS._mobius_column.__wrapped__(4, 2), r"mobius column k=4 b=2"),
    ("join exponents", "_join_exponents", lambda: None,
     lambda: WEINGARTEN._join_exponents.__wrapped__(4), r"join exponents k=4 N=14"),
    ("inverse", "_padic_inverse", lambda: WEINGARTEN._join_exponents(3),
     lambda: WEINGARTEN._weingarten_pair.__wrapped__(3, 5),
     rf"inverse k=3 n=5 N=5 prime={WEINGARTEN._PRIMES[0]} lifts=\d+ den_bits=\d+"),
    # P(4) has 15 partitions; (3)_4 = 0 drops 1|2|3|4
    ("certificate", "check_inverse", lambda: WEINGARTEN._weingarten_pair(4, 3),
     lambda: check_inverse(4, 3), r"certificate k=4 n=3 N=14 rows=14 primes=1"),
    ("urn vector", "_urn_vector", lambda: WEINGARTEN._weingarten_pair(3, 5),
     lambda: EXCHANGE._urn_vector.__wrapped__(MODEL, 3), r"urn vector k=3 n=5 N=5"),
    ("free vector", "_free_vector", lambda: [PARTITIONS._mobius_column(3, b) for b in range(5)],
     lambda: EXCHANGE._free_vector.__wrapped__(MODEL, 3), r"free vector k=3 n=5 N=5"),
]


@pytest.mark.parametrize("kind,builder,warm,build,text", BUILDS, ids=[b[0] for b in BUILDS])
def test_each_table_build_leaves_one_record(caplog, kind, builder, warm, build, text):
    warm()
    with caplog.at_level(logging.DEBUG, logger="qperm"):
        build()
    records = [r for r in caplog.records if r.name.startswith("qperm.")]
    assert len(records) == 1
    record = records[0]
    assert record.build == kind and record.seconds >= 0
    assert record.funcName == builder
    head, _, seconds = record.getMessage().rpartition(" seconds=")
    assert re.fullmatch(text, head)
    assert seconds == f"{record.seconds:.4f}"
