"""Command-line interface: verification runs with human, JSON, or CSV output.

Each command body takes only its own options and returns its parameters,
results, CSV rows, human text and a failure note (None when every check
passes).  One runner, ``_command``, does the rest for every command: it
adds ``--format`` and ``--out``, times the call, writes the payload and
picks the exit code: 0 all checks pass, 1 a verification mismatch (the
note goes to stderr), 2 usage error, including any ValueError the library
raises for bad or over-budget input.  JSON and CSV payloads are
deterministic: identical invocations produce byte-identical output (timing
is a diagnostic, kept out of them).  Every JSON payload is written by one
recursive writer, ``_json_text``, that rounds floats to 6 significant
digits and writes indent-2 JSON in the same pass, byte for byte the text
of ``json.dumps(..., indent=2)`` on the rounded payload.  ``witness``
builds its rows from the witness arrays of
``hidden_variables._witness_table``, with no per-row record or word object.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time

import click
import numpy as np

from . import __version__
from ._enumeration import resolve_workers
from .cyclotomic import compare_real_coeffs
from .generalized import conjecture_search, general_uniform_value, uniform_factors
from .hidden_variables import (
    A_VALUE,
    SYMBOLS,
    _witness_table,
    exhaustive_search,
    factor_table,
    ghz_contradiction_count,
    max_equals_uniform,
    uniform_value,
    violation_ratio,
)
from .mermin import _position_eigenvalue, counts_by_position, expand_identity

TWO_SETTING_ASYMPTOTE = 1.064
THREE_SETTING_ASYMPTOTE = 3 / A_VALUE  # M_Q / M_C ~ 3**(N-1) / (A**N / 3) = (3/A)**N

_WORD_LETTERS = np.frombuffer(b"XYV", dtype=np.uint8)

TABLE1_CAP = 12
SCALING_CAP = 40


def _round(x: float) -> float:
    """x rounded to 6 significant digits, the precision of every payload float."""
    return float(f"{x:.6g}")


def _clean(obj):
    """Rounded floats and lists for tuples, at any depth: a CSV cell's value."""
    if isinstance(obj, float):
        return _round(obj)
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` with every float rounded by ``_round``, in one pass.

    Byte for byte the text of ``json.dumps`` on ``_clean(obj)``: ASCII
    escapes, ``int.__repr__``, ``true``/``false``/``null``, ``NaN`` and
    ``Infinity`` as json writes them, ``{}`` and ``[]`` for empty
    containers.  The exact built-in types are dispatched first; subclasses
    of str, int, float, list, tuple and dict follow json's reading of them.
    Keys must be strings (every payload key is): any other key raises
    TypeError, where json would also write numbers, bools and None.
    ``newline`` is the line break and indent that precede this value's
    closing bracket.
    """
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is float:
        text = float.__repr__(_round(obj))
        return _FLOAT_WORDS.get(text, text)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is not dict and kind is not list and kind is not tuple:
        if isinstance(obj, str):
            return _encode_str(obj)
        if isinstance(obj, int):
            return int.__repr__(obj)
        if isinstance(obj, float):
            return _json_text(float(obj))
        if not isinstance(obj, (list, tuple, dict)):
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [f"{_encode_str(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    items = [_json_text(v, inner) for v in obj]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _csv_text(rows: list[dict], header) -> str:
    """The header row (the first row's keys when None) and one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is None and rows:
        header = list(rows[0].keys())
    if header is not None:
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{v:.6g}" if isinstance(v, float) else v for v in (row[k] for k in header)]
            )
    return buf.getvalue()


# Every click.echo names sys.stdout or sys.stderr, looked up at call time.
# Without a file, click caches each new sys.stdout/sys.stderr in a weak-key
# map whose value is the stream itself, so an in-process call under
# redirect_stdout would keep its output buffer alive for good.  Hence the
# help and version flags below replace click's own.
def _eager_flag(names: list[str], help: str, text) -> click.Option:
    """A flag that prints text(ctx) and exits before any other option is read."""

    def show(ctx: click.Context, _param, value: bool) -> None:
        if value and not ctx.resilient_parsing:
            click.echo(text(ctx), file=sys.stdout, color=ctx.color)
            ctx.exit()

    return click.Option(names, is_flag=True, expose_value=False, is_eager=True,
                        callback=show, help=help)


_help_option = _eager_flag(["-h", "--help"], "Show this message and exit.",
                           click.Context.get_help)
_version_option = _eager_flag(["--version"], "Show the version and exit.",
                              lambda ctx: f"qudit-mermin, version {__version__}")


class _Command(click.Command):
    # returned here rather than listed in params, so a usage error still
    # says "Try '<command> --help' for help."
    def get_help_option(self, ctx: click.Context) -> click.Option:
        return _help_option


class _Group(_Command, click.Group):
    command_class = _Command


@click.group(cls=_Group, params=[_version_option])
def cli() -> None:
    """Exact verification of many-qutrit Mermin operators.

    Quantum eigenvalues, classical (hidden-variable) maxima, GHZ
    contradiction counts, and the odd-d generalization, all with exact
    cyclotomic arithmetic.
    """


_output_options = [
    click.Option(["--format", "fmt"], type=click.Choice(["human", "json", "csv"]),
                 default="human", show_default=True, help="Output format."),
    click.Option(["--out"], type=click.Path(dir_okay=False, writable=True), default=None,
                 help="Write the payload to this file instead of stdout."),
]
_workers_option = click.option(
    "--workers", type=int, default=None,
    help="Accepted for compatibility and ignored (a value below 1 is refused); "
    "every search and scan runs in one process.",
)


def _command(name: str, columns: tuple[str, ...] | None = None):
    """Register a command body that returns (parameters, results, rows, human, failure).

    The body takes only its own options.  The runner adds ``--format`` and
    ``--out``, turns a ValueError from the body (bad or over-budget input)
    into a usage error (exit 2), writes the JSON payload, the CSV rows or
    the human text plus its elapsed line, and exits 1 with the failure note
    on stderr when ``failure`` is not None.  The CSV header is ``columns``
    when given, else the first row's keys: a command whose table can be
    empty names its columns.
    """

    def register(body):
        def run(fmt: str, out: str | None, **options) -> None:
            started = time.perf_counter()
            try:
                parameters, results, rows, human, failure = body(**options)
            except ValueError as exc:
                raise click.UsageError(str(exc)) from exc
            if fmt == "json":
                payload = {"command": name, "version": __version__,
                           "parameters": parameters, "results": results}
                text = _json_text(payload) + "\n"
            elif fmt == "csv":
                text = _csv_text([_clean(r) for r in rows], columns)
            else:
                text = f"{human}\nelapsed: {time.perf_counter() - started:.3f} s\n"
            if out:
                with open(out, "w", encoding="utf-8") as handle:
                    handle.write(text)
                click.echo(f"wrote {out}", file=sys.stderr)
            else:
                click.echo(text, nl=False, file=sys.stdout)
            if failure is not None:
                click.echo(f"verification mismatch: {failure}", file=sys.stderr)
                sys.exit(1)

        # the body's own options first, in the order click lists decorated ones
        own = list(reversed(getattr(body, "__click_params__", [])))
        return cli.command(name, help=body.__doc__, params=own + _output_options)(run)

    return register


@_command("table1")
@click.option("--n-min", type=int, default=3, show_default=True)
@click.option("--n-max", type=int, default=7, show_default=True)
def cmd_table1(n_min: int, n_max: int):
    """Quantum vs classical values and contradiction counts per N."""
    if not 1 <= n_min <= n_max <= TABLE1_CAP:
        raise ValueError(f"need 1 <= n-min <= n-max <= {TABLE1_CAP}")
    rows = []
    failure = None
    for n in range(n_min, n_max + 1):
        m_q = 3 ** (n - 1)
        m_c = uniform_value(n)
        counts = counts_by_position(3, n).counts
        if counts[0] - counts[3] != m_c:
            failure = f"counts route disagrees with recurrence at N={n}"
        rows.append(
            {
                "N": n,
                "M_Q": m_q,
                "M_C": m_c,
                "ratio": m_q / m_c,
                "N_GHZ": ghz_contradiction_count(n),
            }
        )
    lines = [f"{'N':>3} {'M_Q':>8} {'M_C':>8} {'R':>6} {'N_GHZ':>7}"]
    for r in rows:
        lines.append(
            f"{r['N']:>3} {r['M_Q']:>8} {r['M_C']:>8} {r['ratio']:>6.3g} {r['N_GHZ']:>7}"
        )
    return {"n_min": n_min, "n_max": n_max}, {"rows": rows}, rows, "\n".join(lines), failure


@_command("table2")
def cmd_table2():
    """Per-site factor magnitudes and phases for all nine ratio choices."""
    expected_phases = {0.0, 20.0, -20.0, 40.0, -40.0, 80.0, -80.0, 180.0}
    rows = []
    failure = None
    for row in factor_table():
        letters = sorted(e.letter for e in row.entries)
        if letters != ["A", "B", "C"]:
            failure = f"factor multiset broken at ratios ({row.r_exp},{row.s_exp})"
        for e in row.entries:
            if e.phase_deg not in expected_phases:
                failure = f"unexpected phase {e.phase_deg}"
        cells = {"R": SYMBOLS[row.r_exp], "S": SYMBOLS[row.s_exp]}
        for letter, e in zip("ABC", row.entries):
            cells |= {letter: e.text, f"{letter}_phase_deg": e.phase_deg,
                      f"{letter}_magnitude": e.magnitude}
        rows.append(cells)
    lines = [f"{'R':>4} {'S':>4} {'A':>8} {'B':>8} {'C':>8}"]
    for r in rows:
        lines.append(f"{r['R']:>4} {r['S']:>4} {r['A']:>8} {r['B']:>8} {r['C']:>8}")
    lines.append("phases in degrees; A=2.53209, B=1.34730, C=0.879385")
    return {}, {"rows": rows}, rows, "\n".join(lines), failure


@_command("verify")
@click.option("--n", type=int, required=True, help="Number of particles.")
@click.option("--variant", type=int, default=0, show_default=True)
@click.option("--d", type=int, default=3, show_default=True)
def cmd_verify(n: int, variant: int, d: int):
    """Check the exact operator eigenvalue d**(N-1) on its GHZ state."""
    if d != 3 and variant != 0:
        raise ValueError("variants other than 0 are defined for d=3 only")
    eigenvalue, _ = _position_eigenvalue(d, n, variant)
    expected = d ** (n - 1)
    ok = eigenvalue == expected
    results = {
        "d": d,
        "n": n,
        "variant": variant,
        "eigenvalue": eigenvalue,
        "expected": expected,
        "match": ok,
    }
    human = (
        f"eigenvalue {eigenvalue} = {d}^{n - 1}, "
        f"{'PASS' if ok else 'FAIL'} (variant {variant}, d={d})"
    )
    failure = None if ok else f"eigenvalue {eigenvalue} != {expected}"
    return {"n": n, "variant": variant, "d": d}, results, [results], human, failure


@_command("identity")
@click.option("--n", type=int, required=True)
def cmd_identity(n: int):
    """Term-for-term check of the product-form expansion of the operator."""
    report = expand_identity(n)
    results = {
        "n": n,
        "n_words": report.n_words,
        "n_surviving": report.n_surviving,
        "n_vanishing": report.n_vanishing,
        "matches": report.matches,
    }
    human = (
        f"{report.n_words} words: {report.n_surviving} surviving, "
        f"{report.n_vanishing} vanishing, "
        f"{'PASS' if report.matches else 'FAIL'}"
    )
    failure = None if report.matches else "; ".join(report.mismatches[:3])
    return {"n": n}, results, [results], human, failure


@_command("search")
@click.option("--n", type=int, required=True)
@click.option(
    "--mode", type=click.Choice(["ratio", "full"]), default="ratio", show_default=True
)
@_workers_option
def cmd_search(n: int, mode: str, workers: int | None):
    """Exhaustive hidden-variable search for the classical maximum."""
    workers = resolve_workers(workers)
    result = exhaustive_search(n, mode=mode)
    uniform = uniform_value(n)
    equals_uniform = max_equals_uniform(result)
    ok = equals_uniform or n < 3
    if mode == "full":
        ok = ok and result.details["ratio_agreement_max_abs_dev"] <= 1e-9
    results = {
        "n": n,
        "mode": mode,
        "max_magnitude": result.max_magnitude,
        "uniform_value": uniform,
        "max_equals_uniform": equals_uniform,
        "num_maximizers": result.num_maximizers,
        "assignments_scanned": result.assignments_scanned,
        "argmax_index": result.argmax_index,
        "max_sq_coeffs": list(result.max_sq_coeffs),
    }
    if mode == "ratio":
        results["argmax_ratios"] = [list(p) for p in result.argmax.ratio_symbols()]
        results["argmax_factor_letters"] = {
            k: list(v) for k, v in result.argmax_factor_labels.items()
        }
    else:
        results["argmax_values"] = [list(t) for t in result.argmax.value_symbols()]
        results["ratio_agreement_max_abs_dev"] = result.details[
            "ratio_agreement_max_abs_dev"
        ]
    human = (
        f"max |v| = {result.max_magnitude:.6g} over {result.assignments_scanned} "
        f"{mode} assignments; uniform value {uniform} "
        f"({'attained' if equals_uniform else 'NOT attained'}); "
        f"{result.num_maximizers} maximizers"
    )
    click.echo(f"workers: {workers}", file=sys.stderr)
    failure = None if ok else f"search max {result.max_magnitude} vs uniform {uniform}"
    return {"n": n, "mode": mode}, results, [results], human, failure


@_command("witness", columns=("word", "position", "quantum", "hv_prediction", "contradicts"))
@click.option("--n", type=int, required=True)
@click.option("--limit", type=click.IntRange(min=0), default=20, show_default=True,
              help="Rows shown in human output (JSON/CSV always carry all rows).")
def cmd_witness(n: int, limit: int):
    """List GHZ contradictions: quantum eigenphase vs uniform prediction."""
    letters, positions, phases = _witness_table(n)
    expected = ghz_contradiction_count(n)
    all_contradict = bool((phases != 0).all())
    # one ASCII letter per site: rotation index j at column j % 3 of "XYV"
    words = _WORD_LETTERS[letters % 3].view(f"S{n}")[:, 0].astype(f"U{n}").tolist()
    quantum = [f"w^{e // 3}" for e in range(9)]
    rows = [
        {"word": word, "position": k, "quantum": quantum[e], "hv_prediction": 1,
         "contradicts": e != 0}
        for word, k, e in zip(words, positions.tolist(), phases.tolist())
    ]
    results = {
        "n": n,
        "count": len(rows),
        "expected_count": expected,
        "all_contradict": all_contradict,
        "rows": rows,
    }
    lines = [f"{len(rows)} contradictions (expected {expected})"]
    for row in rows[:limit]:
        lines.append(
            f"  {row['word']} at k={row['position']}: quantum {row['quantum']}, "
            f"uniform prediction {row['hv_prediction']} -> contradiction"
        )
    if len(rows) > limit:
        lines.append(f"  ... and {len(rows) - limit} more")
    ok = len(rows) == expected and all_contradict
    failure = None if ok else f"{len(rows)} witnesses vs expected {expected}"
    return {"n": n}, results, rows, "\n".join(lines), failure


@_command("general")
@click.option("--d", type=int, default=5, show_default=True)
@click.option("--n", type=int, required=True)
@click.option("--conjecture", is_flag=True,
              help="Also give the proven classical maximum (at d >= 5, N <= 2 only).")
@_workers_option
def cmd_general(d: int, n: int, conjecture: bool, workers: int | None):
    """Eigenvalue and uniform factors for odd local dimension d."""
    resolve_workers(workers)
    eigenvalue, term_count = _position_eigenvalue(d, n)
    expected = d ** (n - 1)
    ok = eigenvalue == expected and term_count == expected
    failure = None if ok else f"eigenvalue {eigenvalue} or term count {term_count} != {expected}"
    factors = uniform_factors(d)
    results = {
        "d": d,
        "n": n,
        "eigenvalue": eigenvalue,
        "expected": expected,
        "term_count": term_count,
        "match": ok,
        "uniform_factor_magnitudes": list(factors.magnitudes()),
        "largest_factor": factors.largest,
        "uniform_value": general_uniform_value(d, n),
    }
    if conjecture:
        report = conjecture_search(d, n)
        results["conjecture"] = {
            "max_magnitude": report.max_magnitude,
            "uniform_magnitude": report.uniform_magnitude,
            "uniform_is_max": report.uniform_is_max,
            "gap": report.gap,
            "num_maximizers": report.num_maximizers,
            "assignments_scanned": report.assignments_scanned,
        }
        if compare_real_coeffs(d * d, report.max_sq_coeffs, report.uniform_sq_coeffs) < 0:
            failure = "scan maximum fell below the uniform value"
    lines = [
        f"d={d}, N={n}: eigenvalue {eigenvalue} = {d}^{n - 1}, "
        f"{term_count} terms, {'PASS' if failure is None else 'FAIL'}",
        "uniform factors: "
        + ", ".join(f"{m:.5g}" for m in factors.magnitudes()),
        f"uniform |v| = {results['uniform_value']:.6g}",
    ]
    if conjecture:
        c = results["conjecture"]
        verdict = "uniform point attains the maximum" if c["uniform_is_max"] else (
            f"uniform point is below the maximum by {c['gap']:.6g}"
        )
        lines.append(
            f"conjecture scan: max |v| = {c['max_magnitude']:.6g} over "
            f"{c['assignments_scanned']} assignments; {verdict}"
        )
    parameters = {"d": d, "n": n, "conjecture": conjecture}
    return parameters, results, [results], "\n".join(lines), failure


@_command("scaling")
@click.option("--n-max", type=int, default=12, show_default=True)
def cmd_scaling(n_max: int):
    """Plot-ready growth data, with the two-setting reference columns.

    The three-setting asymptote 3/A is computed; the two-setting columns
    (2**N / 3 and 1.064**N) are quoted from the prior two-basis work.
    """
    if not 1 <= n_max <= SCALING_CAP:
        raise ValueError(f"need 1 <= n-max <= {SCALING_CAP}")
    rows = []
    for n in range(1, n_max + 1):
        m_q = 3 ** (n - 1)
        m_c = uniform_value(n)
        two_setting_mq = 2**n / 3.0  # prior two-setting qutrit result
        rows.append(
            {
                "N": n,
                "M_Q": m_q,
                "M_C": m_c,
                "ratio": violation_ratio(n),
                "two_setting_M_Q": two_setting_mq,
                "ratio_prior": m_q / two_setting_mq,
                "asymptote_three_setting": THREE_SETTING_ASYMPTOTE**n,
                "asymptote_two_setting": TWO_SETTING_ASYMPTOTE**n,
            }
        )
    lines = [
        f"{'N':>3} {'M_Q':>10} {'M_C':>10} {'ratio':>9} {'2-setting M_Q':>14} {'ratio_prior':>12}"
    ]
    for r in rows:
        lines.append(
            f"{r['N']:>3} {r['M_Q']:>10} {r['M_C']:>10} {r['ratio']:>9.4g} "
            f"{r['two_setting_M_Q']:>14.6g} {r['ratio_prior']:>12.6g}"
        )
    lines.append(
        f"asymptotes: {THREE_SETTING_ASYMPTOTE:.4g}^N (three settings) vs "
        f"{TWO_SETTING_ASYMPTOTE}^N (two settings)"
    )
    return {"n_max": n_max}, {"rows": rows}, rows, "\n".join(lines), None


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
