import json

import numpy as np
import pytest

import covchan as cc
from covchan import covariant as cov
from covchan import generate as gen
from covchan import serialize as ser
from covchan.errors import CovchanError, MaskNotPSD, ParseError

from conftest import FIXTURES, amplitude_damping


class TestMatrixFormat:
    def test_round_trip(self, rng):
        mat = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        again = ser.matrix_from_json(ser.matrix_to_json(mat))
        np.testing.assert_array_equal(again, mat)

    def test_row_major_order(self):
        obj = ser.matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert obj["data"] == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]

    def test_wrong_entry_count(self):
        with pytest.raises(ParseError):
            ser.matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    def test_missing_key(self):
        with pytest.raises(ParseError):
            ser.matrix_from_json({"rows": 2, "data": []})

    @pytest.mark.parametrize("rows, cols", [(-1, -1), (2, 0), (0, 0), (1.5, 1), (1.0, 1),
                                            (True, 1), ("1", 1), (None, 1)])
    def test_dims_are_json_integers_of_at_least_one(self, rows, cols):
        # -1 x -1 matches one entry, and int() read 1.5 and true as 1.
        with pytest.raises(ParseError, match="integers >= 1"):
            ser.matrix_from_json({"rows": rows, "cols": cols, "data": [[1.0, 0.0]]})

    def test_vector_rejects_matrix(self):
        obj = ser.matrix_to_json(np.eye(2))
        with pytest.raises(ParseError):
            ser.vector_from_json(obj)

    def test_vector_accepts_column(self):
        obj = ser.matrix_to_json(np.array([[1.0], [2.0]]))
        np.testing.assert_array_equal(ser.vector_from_json(obj), [1.0, 2.0])


class TestChannelFormat:
    def test_round_trip(self, rng):
        chan = gen.random_cptp(3, rng)
        again = ser.channel_from_json(ser.channel_to_json(chan))
        for a, b in zip(chan.kraus, again.kraus):
            np.testing.assert_array_equal(a, b)

    def test_declared_dims_checked(self):
        obj = ser.channel_to_json(amplitude_damping(0.3))
        obj["dim_in"] = 3
        with pytest.raises(ParseError):
            ser.channel_from_json(obj)


class TestSpectrumAndDecomposition:
    def test_spectrum_round_trip(self):
        spec = cc.Spectrum(np.array([0.0, 1.5, 3.0]), match_tol=1e-8)
        again = ser.spectrum_from_json(ser.spectrum_to_json(spec))
        np.testing.assert_array_equal(again.energies, spec.energies)
        assert again.match_tol == spec.match_tol

    def test_decomposition_round_trip(self, rng):
        spec = cc.Spectrum(np.arange(4.0))
        decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
        again = ser.decomposition_from_json(ser.decomposition_to_json(decomp))
        assert again.sigmas().tolist() == decomp.sigmas().tolist()
        for s in decomp.sigmas():
            np.testing.assert_allclose(again.sector(s)[1].mask,
                                       decomp.sector(s)[1].mask, atol=1e-15)
            # shifts are rebuilt, not stored
            np.testing.assert_array_equal(again.sector(s)[0].matrix,
                                          decomp.sector(s)[0].matrix)


class TestDecompositionValidation:
    """decomposition_from_json reads outside input: every sector must name an
    energy difference once, with a dim x dim mask supported on its domain."""

    @staticmethod
    def qubit_decomposition(sectors):
        return {"spectrum": {"energies": [0.0, 1.0]},
                "sectors": [{"sigma": s, "mask": ser.matrix_to_json(m)} for s, m in sectors]}

    def test_unknown_sigma(self):
        obj = self.qubit_decomposition([(0.5, np.zeros((2, 2)))])
        with pytest.raises(ParseError, match="not an energy difference"):
            ser.decomposition_from_json(obj)

    def test_duplicate_sigma(self):
        obj = self.qubit_decomposition([(0.0, np.eye(2)), (1e-12, np.eye(2))])
        with pytest.raises(ParseError, match="listed before"):
            ser.decomposition_from_json(obj)

    def test_wrong_mask_shape(self):
        obj = self.qubit_decomposition([(0.0, np.eye(3))])
        with pytest.raises(ParseError, match="mask shape"):
            ser.decomposition_from_json(obj)

    def test_support_outside_domain(self):
        obj = self.qubit_decomposition([(1.0, np.eye(2))])  # domain of sigma = 1 is (0,)
        with pytest.raises(MaskNotPSD, match="outside its domain"):
            ser.decomposition_from_json(obj)

    @pytest.mark.parametrize("sigma, mask", [("0", np.eye(2)),
                                             (True, np.array([[0.5, 0.0], [0.0, 0.0]]))],
                             ids=["string", "bool"])
    def test_sigma_must_be_a_json_number(self, sigma, mask):
        # float() read "0" as sigma 0 and true as sigma 1, whose sector on the
        # qubit holds this mask on its domain (0,).
        obj = self.qubit_decomposition([(sigma, mask)])
        with pytest.raises(ParseError, match="sigma must be a number"):
            ser.decomposition_from_json(obj)
        assert ser.decomposition_from_json(self.qubit_decomposition([(float(sigma), mask)]))

    def test_sigma_past_any_double(self):
        # float() raised a builtin OverflowError on an integer sigma of 10**400.
        obj = self.qubit_decomposition([(10**400, np.eye(2))])
        with pytest.raises(ParseError, match="malformed decomposition object"):
            ser.decomposition_from_json(obj)

    @staticmethod
    def qutrit_decomposition(sectors):
        return {"spectrum": {"energies": [0.0, 1.0, 2.0]},
                "sectors": [{"sigma": s, "mask": ser.matrix_to_json(m)} for s, m in sectors]}

    SWAP = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])  # eigenvalue -1 on (0, 1)

    def test_a_mask_not_psd_is_named_by_its_cluster_sigma(self):
        obj = self.qutrit_decomposition([(1.0 + 1e-12, self.SWAP)])
        with pytest.raises(MaskNotPSD, match=r"^sector 1\.0: domain submatrix eigenvalue -1"):
            ser.decomposition_from_json(obj)

    def test_names_the_first_mask_not_psd_in_sector_order(self):
        # The file lists sigma = 1 before sigma = -1; the spectrum's order is -1, 1.
        minus = np.roll(self.SWAP, 1, axis=(0, 1))  # on the domain (1, 2) of sigma = -1
        obj = self.qutrit_decomposition([(1.0, self.SWAP), (-1.0, minus)])
        with pytest.raises(MaskNotPSD, match=r"^sector -1\.0: "):
            ser.decomposition_from_json(obj)

    @pytest.mark.parametrize("fault, match", [((0.5, np.eye(3)), "not an energy difference"),
                                              ((1.0, np.eye(3)), "listed before"),
                                              ((-1.0, np.eye(2)), "mask shape"),
                                              ((-1.0, np.eye(3)), "outside its domain")],
                             ids=["unknown", "repeated", "shape", "support"])
    def test_structural_faults_come_before_the_mask_check(self, fault, match):
        obj = self.qutrit_decomposition([(1.0, self.SWAP), fault])
        with pytest.raises((ParseError, MaskNotPSD), match=match):
            ser.decomposition_from_json(obj)

    def test_sectors_read_back_in_sector_order_with_the_cluster_sigma(self):
        half = np.diag([0.5, 0.5, 0.0])
        decomp = ser.decomposition_from_json(
            self.qutrit_decomposition([(1.0 + 1e-12, half), (-1.0, np.roll(half, 1, axis=(0, 1)))]))
        assert decomp.sigmas().tolist() == [-1.0, 1.0]
        assert [shift.sigma for shift, _ in decomp.sectors] == [-1.0, 1.0]
        assert [mask.sigma for _, mask in decomp.sectors] == [-1.0, 1.0]

    def test_mask_is_stored_as_its_domain_block(self):
        mask = np.array([[0.0, 0.0], [0.0, 0.25]])
        decomp = ser.decomposition_from_json(self.qubit_decomposition([(-1.0, mask)]))
        shift, sector = decomp.sector(-1.0)
        assert shift.domain == (1,) and shift.image == (0,)
        np.testing.assert_array_equal(sector.domain_submatrix, [[0.25]])
        np.testing.assert_array_equal(sector.mask, mask)


@pytest.mark.parametrize("refuse, opening", [
    (lambda: cc.Spectrum([0.0, 1.0], match_tol=10**400), "match_tol must be a real number"),
    (lambda: ser.matrix_from_json({"rows": 10**400, "cols": 1, "data": [[1.0, 0.0]]}),
     "matrix data has 1 entries"),
    (lambda: ser.matrix_from_json({"rows": -10**400, "cols": 1, "data": [[1.0, 0.0]]}),
     "matrix rows and cols must be integers >= 1"),
    (lambda: ser.channel_from_json({**ser.channel_to_json(amplitude_damping(0.3)),
                                    "dim_in": 10**400}), "declared dims"),
], ids=["match_tol", "rows", "negative-rows", "dim_in"])
def test_refusals_echo_a_huge_integer_shortened(refuse, opening):
    # The whole 401-digit integer was echoed: messages of 437 to 452 characters.
    with pytest.raises(CovchanError) as exc:
        refuse()
    assert str(exc.value).startswith(opening) and len(str(exc.value)) < 150


class TestFloatsAndFiles:
    def test_dumps_17_digits_round_trip(self):
        x = 1.0 / 3.0
        text = ser.dumps({"x": x, "nested": [x, 2 * x]})
        back = json.loads(text)
        assert back["x"] == x and back["nested"] == [x, 2 * x]

    def test_dumps_handles_scalars(self):
        assert ser.dumps(True) == "true"
        assert ser.dumps(None) == "null"
        assert ser.dumps([1, "a"]) == '[1, "a"]'

    def test_load_json_reports_offset(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 2,,}')
        with pytest.raises(ParseError, match="byte offset"):
            ser.load_json(bad)

    def test_fixture_files_parse(self):
        chan = ser.channel_from_json(ser.load_json(FIXTURES / "amplitude_damping_0.3.json"))
        assert chan.dim_in == 2
        spec = ser.spectrum_from_json(ser.load_json(FIXTURES / "spectrum_4level.json"))
        assert spec.dim == 4
        phi0 = ser.vector_from_json(ser.load_json(FIXTURES / "phi0_4level.json"))
        assert abs(np.linalg.norm(phi0) - 1.0) < 1e-12
