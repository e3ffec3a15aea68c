"""The output ledger: command lines whose exit code and stdout must not
change unless a change means them to. tests/output_ledger.txt holds one
command per line, after its exit code and the SHA-256 of its stdout; this
test runs every line through cli.main in one process and compares. verify's
JSON is hashed without its times (the report's elapsed_seconds and stages,
and each record's elapsed_seconds). A change that alters an output on
purpose edits that line of the ledger and says why."""
import contextlib
import hashlib
import io
import json
import pathlib
import shlex

from dyckmotz import cli

LEDGER = pathlib.Path(__file__).with_name("output_ledger.txt")


def _untimed(report: str) -> str:
    data = json.loads(report)
    del data["elapsed_seconds"], data["stages"]
    for check in data["checks"]:
        check.pop("elapsed_seconds", None)
    return json.dumps(data, indent=2)


def run(command: str):
    """(exit code, stdout SHA-256, stdout) of one ledger command line."""
    argv, out = shlex.split(command), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = out.getvalue()
    if argv[0] == "verify" and "json" in argv:
        text = _untimed(text)
    return code, hashlib.sha256(text.encode()).hexdigest(), text


def _entries():
    for line in LEDGER.read_text().splitlines():
        if line and not line.startswith("#"):
            code, digest, command = line.split(maxsplit=2)
            yield command, int(code), digest


def test_every_ledger_line_reproduces(monkeypatch):
    monkeypatch.delenv("DYCKMOTZ_OEIS_CACHE", raising=False)
    entries = list(_entries())
    assert len(entries) == 56
    mismatches = []
    for command, code, digest in entries:
        got_code, got_digest, text = run(command)
        if (got_code, got_digest) != (code, digest):
            head = "\n    ".join(text.splitlines()[:3])
            mismatches.append(f"{command}: want exit {code} sha256 {digest}, got exit "
                              f"{got_code} sha256 {got_digest}; output begins\n    {head}")
    assert not mismatches, "\n".join(mismatches)
