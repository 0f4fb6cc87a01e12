"""Run one finmeas CLI command under cProfile, import included.

Usage: profiled_cli.py STATS_FILE COMMAND [ARGS...]
Writes the profile to STATS_FILE and exits with the command's exit code.
"""

import cProfile
import sys

prof = cProfile.Profile()
prof.enable()
try:
    import finmeas.cli

    code = finmeas.cli.main(sys.argv[2:])
finally:
    prof.disable()
    prof.dump_stats(sys.argv[1])
sys.exit(code)
