"""Run one ``teijournal`` command with the timing wrappers installed.

    python3 perfbench/launch.py SPANS_JSON PASS_ID TAG -- COMMAND ARGS...

Installs the wrappers from ``tracer``, calls ``teijournal.cli.main`` with the
arguments after ``--``, writes the recorded spans to SPANS_JSON when the
command ends and exits with the command's status.
"""

import sys

import tracer


def main() -> int:
    spans_path, pass_id, tag, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_JSON PASS_ID TAG -- COMMAND ARGS...")
    recorder = tracer.Tracer()
    recorder.pass_id = int(pass_id)
    recorder.tag = tag
    tracer.install(recorder)
    from teijournal import cli

    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
