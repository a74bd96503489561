"""Output-correctness checks and the host/build snapshot of the benchmark.

Every check returns None when the output is correct and a one-line
description of the mismatch otherwise; the runner counts a step with a
mismatch as failed. tests/test_checks.py feeds each check a corrupted
output and asserts that it fires.
"""

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path


def exit_code(rc, expected, what):
    if rc != expected:
        return f"{what}: exit code {rc}, expected {expected}"
    return None


def same_bytes(actual, expected, what):
    """Byte identity, naming the first differing offset."""
    if actual == expected:
        return None
    limit = min(len(actual), len(expected))
    at = next((i for i in range(limit) if actual[i] != expected[i]), limit)
    return (f"{what}: differs at byte {at} "
            f"({len(actual)} bytes, expected {len(expected)})")


def trace_well_formed(data):
    """The first trace of a run: Chrome trace_event JSON with events."""
    try:
        doc = json.loads(data)
    except ValueError as e:
        return f"trace file is not JSON: {e}"
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not events:
        return "trace file holds no traceEvents"
    return None


def trace_stable(digest, first_digest):
    """Later traces of a run must be byte-identical to the first."""
    if digest != first_digest:
        return "trace file bytes changed between iterations"
    return None


def gate_verdict(rc, stdout, expect_regression):
    """`nodebench gate`: exit 0 and PASS on the clean pair, exit 3 and
    FAIL on the regression pair."""
    lines = stdout.decode(errors="replace").strip().splitlines()
    last = lines[-1] if lines else ""
    want_rc, want_word = (3, "FAIL") if expect_regression else (0, "PASS")
    if rc != want_rc or not last.endswith("-> " + want_word):
        return (f"gate: exit {rc} with '{last}', expected exit {want_rc} "
                f"and '-> {want_word}'")
    return None


def unchanged_by_resume(before, after, what):
    """A resume of a finished journal replays; it appends nothing."""
    if before != after:
        return f"{what} changed during --resume of a finished campaign"
    return None


def serve_done(status, body):
    """A completed POST: 200, state done, no incidents. Returns
    (problem, decoded document)."""
    if status != 200:
        return f"serve POST returned HTTP {status}", None
    try:
        doc = json.loads(body)
    except ValueError:
        return "serve POST returned a body that is not JSON", None
    if doc.get("state") != "done" or doc.get("incidents") != []:
        return (f"serve request {doc.get('id')} ended in state "
                f"{doc.get('state')} with incidents"), None
    if not doc.get("tables"):
        return f"serve request {doc.get('id')} returned no tables", None
    return None, doc


def memo_hit_matches(doc, primed_tables):
    """A memo hit is byte-equal to the first cold computation of its spec."""
    if doc["tables"] != primed_tables:
        return (f"memo hit {doc.get('id')} differs from the first cold "
                "computation of its spec")
    return None


def get_matches(status, body, posted):
    """GET /requests/<id> returns exactly the body its POST returned."""
    if status != 200:
        return f"GET returned HTTP {status}"
    return same_bytes(body, posted, "GET /requests/<id> vs its POST body")


def cold_matches_cli(table_ascii, cli_stdout, runs):
    """A cold serve result equals `nodebench table 4 --runs R`."""
    return same_bytes((table_ascii + "\n").encode(), cli_stdout,
                      f"serve table 4 at runs={runs} vs the CLI")


# --- host/build snapshot ------------------------------------------------------

def _cache_value(cache, key):
    for line in cache.splitlines():
        name, sep, value = line.partition("=")
        if sep and name.split(":")[0] == key:
            return value
    return ""


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_revision(root):
    """The git revision of a git checkout, else a digest of the sources."""
    root = Path(root)
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build_snapshot(root, build_dir):
    cache = (Path(build_dir) / "CMakeCache.txt").read_text()
    compiler = _cache_value(cache, "CMAKE_CXX_COMPILER")
    version = ""
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "compiler": version or compiler,
        "build_type": _cache_value(cache, "CMAKE_BUILD_TYPE"),
        "sanitize": _cache_value(cache, "NODEBENCH_SANITIZE"),
        "coverage": _cache_value(cache, "NODEBENCH_COVERAGE"),
        "git_rev": _source_revision(root),
    }


def unmeasurable(snapshot):
    """Debug, sanitizer and coverage builds measure a different program."""
    if snapshot["build_type"] not in ("Release", "RelWithDebInfo", "MinSizeRel"):
        return f"build type '{snapshot['build_type']}' is not an optimized build"
    if snapshot["sanitize"]:
        return f"NODEBENCH_SANITIZE={snapshot['sanitize']} build"
    if snapshot["coverage"].upper() in ("ON", "1", "TRUE", "YES"):
        return "NODEBENCH_COVERAGE build"
    return None
