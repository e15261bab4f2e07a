"""Raw values from the JSON config to the JSON report.

`split_spin` and `exceptional_cover` build their integer cells straight
from the form's integer terms, the scale s and alpha = r / q; they are
compared here with a reference that builds the Fraction constants and hands
them to `Algebra(...)`.  The JSON writers for matrices and elements write
raw values and are compared with `Scalar.to_json`; the Miyamoto writer,
which reads (L, int rows of L tau), with `matrix_to_json` of the report's
`Matrix`; and `parse_config`'s int strings with `raw_value`, error texts
included.  `ast` guards, in the style of test_integer_axis_path.py, pin
that `parse_config` leaves the one symmetry check to `QuadraticSpace`, that
the constructors box nothing, that the writers read `.raw`, and that a
class axis runs from x to the report without naming `Fraction` or `Scalar`.
"""

import ast
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitspin
from splitspin import Algebra, Field, Matrix, QuadraticSpace, check_axis, exceptional_cover, split_spin
from splitspin.algebra import COVER, SPLIT_SPIN, AlgebraMeta
from splitspin.config import _parse_raw
from splitspin.errors import ConfigError
from splitspin.fields import raw_value
from splitspin.serialize import algebra_to_json, axis_report_to_json, element_to_json, matrix_to_json, scaled_to_json
from test_eigenbasis import class_axes

PACKAGE = pathlib.Path(splitspin.__file__).parent
FIELDS = [Field.rationals(), Field.prime(7), Field.prime(10007)]
FIELD_IDS = ["QQ", "F7", "F10007"]
# coprime denominators far above the primes, so over F_p they are units
BIG_DENOMINATORS = (1, 2, 3, 10009, 10037, 65537, 1000003)


def reference_split_spin(space, alpha):
    """The split spin factor from Fraction constants through `Algebra(...)`."""
    field, k = space.field, space.dim
    alpha = field.scalar(alpha)
    a = alpha.value
    c1, c2 = a * (a - 2), (a - 1) * (a + 1)
    constants = []
    for i in range(k):
        for j in range(i, k):
            b = space.gram.raw[i][j]
            constants += [(i, j, k, -b * c1), (i, j, k + 1, -b * c2)]
        constants += [(i, k, i, a), (i, k + 1, i, 1 - a)]
    constants += [(k, k, k, 1), (k + 1, k + 1, k + 1, 1)]
    labels = tuple(f"e{i + 1}" for i in range(k)) + ("z1", "z2")
    warnings = ("characteristic_two",) if field.characteristic == 2 else ()
    return Algebra(field, labels, constants, AlgebraMeta(SPLIT_SPIN, alpha=alpha, space=space, warnings=warnings))


def reference_cover(space):
    field, k = space.field, space.dim
    constants = []
    for i in range(k):
        for j in range(i, k):
            b = space.gram.raw[i][j]
            constants += [(i, j, k, -3 * b), (i, j, k + 1, 2 * b)]
        constants.append((i, k, i, -1))
    constants.append((k, k, k, 1))
    labels = tuple(f"e{i + 1}" for i in range(k)) + ("z1", "n")
    warnings = {2: ("characteristic_two",), 3: ("characteristic_three",)}.get(field.characteristic, ())
    return Algebra(field, labels, constants, AlgebraMeta(COVER, alpha=field.scalar(-1), space=space,
                                                         warnings=warnings))


def assert_same_algebra(algebra, reference):
    assert algebra._rows == reference._rows
    assert algebra.denominator == reference.denominator
    assert algebra.constants == reference.constants
    assert algebra.labels == reference.labels and algebra.meta == reference.meta


fractions = st.builds(Fraction, st.integers(-50, 50), st.sampled_from(BIG_DENOMINATORS))


@st.composite
def grams(draw):
    """A symmetric Gram matrix: random Fractions, random small ints, zero, or
    degenerate (its last row a copy of its first)."""
    n = draw(st.integers(1, 4))
    cell = st.one_of(st.just(Fraction(0)), fractions, st.integers(-3, 3).map(Fraction))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(cell)
    shape = draw(st.sampled_from(["random", "zero", "degenerate"]))
    if shape == "zero":
        rows = [[Fraction(0)] * n for _ in range(n)]
    elif shape == "degenerate" and n > 1:
        for j in range(n):
            rows[n - 1][j] = rows[j][n - 1] = rows[0][j]
        rows[n - 1][n - 1] = rows[0][0]
    return rows


alphas = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2),
                                    Fraction(5, 3)]), fractions, st.integers(-20, 20).map(Fraction))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(gram=grams(), alpha=alphas)
def test_constructors_match_the_fraction_reference(field, gram, alpha):
    space = QuadraticSpace(Matrix(field, gram))
    assert_same_algebra(split_spin(space, alpha), reference_split_spin(space, alpha))
    assert_same_algebra(exceptional_cover(space), reference_cover(space))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("alpha", [0, 1, 2, -1])
def test_vanishing_cells_are_dropped(field, alpha):
    """At alpha in {0, 1, 2, -1} a whole z1 or z2 column of cells is zero;
    a zero Gram entry drops its pair."""
    space = QuadraticSpace(Matrix(field, [[1, 0], [0, Fraction(1, 3)]]))
    algebra = split_spin(space, alpha)
    assert_same_algebra(algebra, reference_split_spin(space, alpha))
    assert algebra.cell(0, 1) == ()
    assert all(c for row in algebra._rows for cell in row.values() for _, c in cell)


def test_the_denominator_is_the_lcm_of_the_reduced_denominators():
    """D0 = s q^2 is divided by its gcd with every numerator: 1/2 entries and
    alpha = 3 give s = 2 and D = 2, alpha = 1/3 gives q = 3 and D = 18."""
    space = QuadraticSpace(Matrix(Field.rationals(), [[Fraction(1, 2), 0], [0, 1]]))
    assert split_spin(space, 3).denominator == 2
    assert split_spin(space, Fraction(1, 3)).denominator == 18
    assert exceptional_cover(space).denominator == 2


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_raw_json_writers_match_scalar_to_json(field, data):
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entries = data.draw(st.lists(st.lists(st.one_of(fractions, st.integers(-10**12, 10**12)),
                                          min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    m = Matrix(field, entries)
    assert matrix_to_json(m) == [[c.to_json() for c in row] for row in m.entries]
    space = QuadraticSpace(Matrix(field, data.draw(grams())))
    algebra = split_spin(space, data.draw(alphas))
    x = algebra.element(data.draw(st.lists(fractions, min_size=algebra.dim, max_size=algebra.dim)))
    for v in (x, x * x, algebra.zero()):
        assert element_to_json(v) == [c.to_json() for c in v.coords]
    assert algebra_to_json(algebra)["structure_constants"] == [[i, j, k, c.to_json()]
                                                               for i, j, k, c in algebra.constants]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_miyamoto_writer_matches_matrix_to_json(field):
    """The report's (L, int rows) written as `matrix_to_json` writes the
    Miyamoto `Matrix`, on class axes of random algebras (Fraction alpha over
    Q) and on drawn rows whose entries repeat and are negative; equal
    entries share one string."""
    @settings(derandomize=True, max_examples=40)
    @given(class_axes(field))
    def axes(case):
        report = check_axis(*case)
        written = axis_report_to_json(report)["miyamoto"]
        assert written == (None if report.miyamoto is None else matrix_to_json(report.miyamoto))

    @given(st.data())
    def rows(data):
        p = field.p
        scale = 1 if p else data.draw(st.sampled_from(BIG_DENOMINATORS)) * data.draw(st.integers(1, 12))
        values = st.integers(0, p - 1) if p else st.integers(-3 * scale, 3 * scale)
        pool = data.draw(st.lists(values, min_size=1, max_size=4))
        n = data.draw(st.integers(1, 5))
        ints = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=n, max_size=n), min_size=n, max_size=n))
        written = scaled_to_json(p, scale, ints)
        assert written == matrix_to_json(Matrix(field, [[Fraction(c, scale) for c in row] for row in ints]))
        strings = {}
        assert all(strings.setdefault(c, w) is w for row, out in zip(ints, written) for c, w in zip(row, out))

    axes()
    rows()


def reference_parse_raw(field, value, where):
    """`config._parse_raw` as it read every string through `raw_value`."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{where} must be an integer or a fraction string")
    try:
        return raw_value(field, value)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad scalar for {where}: {exc}") from exc


CONFIG_VALUES = ["-0", "007", "+3", " 3 ", "٣", "1_000", "3/1", "-12/8", " 7 / 14 ", "1/7", "3/0", "",
                 "  ", "abc", "1.5", "- 3", "1__0", "_1", "0x10", "٣/١", 5, -7, 0, 10**30, True, 1.5, None]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("value", CONFIG_VALUES, ids=repr)
def test_config_int_strings_parse_as_raw_value_parses_them(field, value):
    def outcome(parse):
        try:
            result = parse(field, value, '"gram" entry')
        except ConfigError as exc:
            return ConfigError, str(exc)
        return type(result), result

    assert outcome(_parse_raw) == outcome(reference_parse_raw)


# -- ast guards ------------------------------------------------------------------


def _function(module, name):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"), filename=module)
    (node,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def _names(node):
    """Every name and attribute read in the node."""
    return {(n.lineno, n.id if isinstance(n, ast.Name) else n.attr) for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_parse_config_leaves_the_symmetry_check_to_the_quadratic_space():
    lines = [line for line, name in _names(_function("config.py", "parse_config")) if name == "is_symmetric"]
    assert not lines, f"parse_config checks symmetry itself at lines {lines}"


@pytest.mark.parametrize("name", ["split_spin", "exceptional_cover"])
def test_constructors_build_no_fraction_or_scalar(name):
    lines = sorted((line, n) for line, n in _names(_function("algebra.py", name))
                   if n in ("Fraction", "Scalar", "raw_values"))
    assert not lines, f"{name} names {lines}"


@pytest.mark.parametrize("name", ["matrix_to_json", "element_to_json", "algebra_to_json"])
def test_json_writers_read_raw_values(name):
    names = _names(_function("serialize.py", name))
    lines = sorted((line, n) for line, n in names if n in ("entries", "coords", "constants"))
    assert not lines, f"{name} reads a Scalar view at {lines}"
    assert any(n in ("raw", "raw_constants") for _, n in names)


CLASS_AXIS_PATH = [("axial.py", "check_axis"), ("idempotents.py", "eigenbasis"), ("idempotents.py", "_matcher"),
                   ("idempotents.py", "is_idempotent"), ("serialize.py", "scaled_to_json")]


@pytest.mark.parametrize("module, name", CLASS_AXIS_PATH, ids=[name for _, name in CLASS_AXIS_PATH])
def test_the_class_axis_path_names_no_fraction_or_scalar(module, name):
    lines = sorted((line, n) for line, n in _names(_function(module, name)) if n in ("Fraction", "Scalar"))
    assert not lines, f"{name} names {lines}"
