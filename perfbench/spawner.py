"""Starts the cli-cold children, one at a time, on behalf of the benchmark.

A child started straight from the benchmark process would report the
benchmark's own resident pages in its peak RSS: Linux folds the memory the
child borrowed at vfork into its ru_maxrss when it execs.  This process is
small and imports only the standard library, so the children's peak RSS is
their own.

Protocol: one JSON request per stdin line, {"argv": [...], "env": {...}};
one JSON reply per stdout line with the child's exit code, stdout and
stderr, and the CPU time and largest peak RSS of all children so far.
The process ends when stdin closes.
"""

import json
import resource
import subprocess
import sys


def main():
    for line in sys.stdin:
        req = json.loads(line)
        proc = subprocess.run(req["argv"], env=req["env"], capture_output=True, text=True, timeout=120)
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        reply = {
            "code": proc.returncode,
            "stdout": proc.stdout,
            "stderr": proc.stderr,
            "children_cpu_s": ru.ru_utime + ru.ru_stime,
            "children_maxrss_kb": ru.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
