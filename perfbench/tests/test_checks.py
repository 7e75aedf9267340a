import pytest

import checks
from haarq.cli import main as haarq_main
from workloads import make_signal, write_signal

N = 6


@pytest.fixture
def signal(tmp_path):
    # Three and a half blocks, so the last block is zero padded.
    values = make_signal(3 * (1 << N) + (1 << (N - 1)), seed=11)
    path = tmp_path / "signal.csv"
    write_signal(path, values, "csv")
    return path


def quantize(signal, tmp_path, fmt):
    src = signal
    if fmt == "raw":
        src = tmp_path / "signal.raw"
        write_signal(src, checks.read_input(signal, "csv"), "raw")
    out = tmp_path / f"codes.{fmt}"
    assert haarq_main(["quantize", "--format", fmt, "--block-exp", str(N),
                       "--input", str(src), "--output", str(out)]) == 0
    return checks.read_input(src, fmt), out


@pytest.mark.parametrize("fmt", ["csv", "raw"])
def test_codes_pass_and_one_code_off_by_two_fails(signal, tmp_path, fmt):
    f, out = quantize(signal, tmp_path, fmt)
    g = checks.read_codes(out, fmt)
    assert checks.check_codes(f, g, N) == []

    g[17] += 2
    if fmt == "raw":
        write_signal(out, g, "raw")
    else:
        out.write_text("".join(f"{v}\n" for v in g))
    problems = checks.check_codes(f, checks.read_codes(out, fmt), N)
    assert any("samples break" in p for p in problems)
    assert any("block 0" in p for p in problems)


def test_non_integer_codes_are_rejected(tmp_path):
    path = tmp_path / "codes.raw"
    write_signal(path, make_signal(8, seed=1), "raw")
    with pytest.raises(ValueError):
        checks.read_codes(path, "raw")


def test_spectrum_passes_and_a_dropped_row_fails(signal, tmp_path):
    out = tmp_path / "spectrum.csv"
    f = checks.read_input(signal, "csv")[: 1 << N]
    one_block = tmp_path / "block.csv"
    write_signal(one_block, f, "csv")
    assert haarq_main(["spectrum", "--block-exp", str(N), "--input", str(one_block),
                       "--output", str(out)]) == 0
    assert checks.check_spectrum_csv(out, N) == []

    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:10] + lines[11:]))
    assert checks.check_spectrum_csv(out, N) != []


def test_spectrum_row_over_its_bound_fails(tmp_path):
    out = tmp_path / "spectrum.csv"
    rows = [checks.SPECTRUM_HEADER]
    for xi in range(-(1 << (N - 1)) + 1, (1 << (N - 1)) + 1):
        measured = 1.0 if xi == 3 else 0.0
        rows.append(f"{xi},{measured},0.5,0.5,0.5")
    out.write_text("\n".join(rows) + "\n")
    assert any("measured > bound_exact" in p for p in checks.check_spectrum_csv(out, N))


def test_verify_stdout_and_report_checks(tmp_path):
    assert checks.check_verify_stdout(b"verify: PASS (4 blocks)\n", 4) == []
    assert checks.check_verify_stdout(b"verify: FAIL (4 blocks)\n", 4) != []
    report = tmp_path / "report.json"
    report.write_text('{"pass": true, "block_count": 3}')
    assert checks.check_report(report, 3) == []
    assert checks.check_report(report, 4) != []
