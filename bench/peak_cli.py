"""Run one superdecomp CLI command as ``python -m superdecomp.cli`` does,
and write the process's peak resident set size (KiB) at exit.

Usage: python3 bench/peak_cli.py CLI-ARGS...   (with src on PYTHONPATH)

The environment gives BENCH_RSS_OUT, the file the peak is written to.
The peak is VmHWM of this process's own address space.  The ru_maxrss
that the parent gets from wait4 cannot stand in for it: on Linux, exec
carries the peak of the address space the child was started from (the
parent's, since subprocess uses vfork) into ru_maxrss, so every child
would read at least the parent's own peak.
"""

import atexit
import os
import runpy


def write_peak():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                with open(os.environ["BENCH_RSS_OUT"], "w") as out:
                    out.write(line.split()[1])
                return


if __name__ == "__main__":
    atexit.register(write_peak)
    # sets sys.argv[0] to the module's file, as -m does
    runpy.run_module("superdecomp.cli", run_name="__main__", alter_sys=True)
