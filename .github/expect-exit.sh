# Shell functions for the CI steps that check a command's exit code and stderr.
# Source this file in a step, then call the functions as plain statements, so
# that the step's `bash -e` stops at the first failed check.

# expect_exit CODE MESSAGE COMMAND...
# Runs COMMAND with its stderr in $RUNNER_TEMP/expect.err, prints that stderr,
# and fails unless COMMAND exits CODE.  A nonempty MESSAGE also requires stderr
# to be one line: equal to MESSAGE, or matching it as a grep pattern when
# MESSAGE starts with ^.
expect_exit() {
  local want=$1 message=$2 code=0 err="$RUNNER_TEMP/expect.err"
  shift 2
  "$@" 2> "$err" || code=$?
  cat "$err"
  test "$code" -eq "$want"
  if [ -n "$message" ]; then
    test "$(wc -l < "$err")" -eq 1
    if [ "${message#^}" != "$message" ]; then
      grep -q "$message" "$err"
    else
      grep -qxF "$message" "$err"
    fi
  fi
}

# vmem_2g COMMAND...: runs COMMAND in a subshell limited to 2 GiB of address space.
vmem_2g() (
  ulimit -v 2097152
  "$@"
)
