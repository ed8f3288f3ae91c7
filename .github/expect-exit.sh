# Shell functions for the CI steps that check a command's exit code and stderr.
# Source this file in a step, then call the functions as plain statements, so
# that the step's `bash -e` stops at the first failed check.

# expect_exit CODE MESSAGE COMMAND...
# Runs COMMAND with its stderr in $RUNNER_TEMP/expect.err, prints that stderr,
# and fails unless COMMAND exits CODE.  A nonempty MESSAGE also requires stderr
# to be one line, equal to MESSAGE.
expect_exit() {
  local want=$1 message=$2 code=0 err="$RUNNER_TEMP/expect.err"
  shift 2
  "$@" 2> "$err" || code=$?
  cat "$err"
  test "$code" -eq "$want"
  if [ -n "$message" ]; then
    test "$(wc -l < "$err")" -eq 1
    grep -qxF "$message" "$err"
  fi
}

# expect_exit_cases EXE DIR
# Reads the lines `python tests/exit_cases.py DIR` prints on stdin (id, exit
# code, `vmem` or `-`, stderr line, argv, separated by tabs) and checks each
# case with expect_exit on EXE and its argv, run in DIR/ID, under vmem_2g when
# flagged.  The first case that fails its check fails the step.
expect_exit_cases() {
  local exe=$1 dir=$2 line
  local -a field run
  while IFS= read -r line; do
    mapfile -t -d $'\t' field < <(printf '%s' "$line")
    run=("$exe" "${field[@]:4}")
    if [ "${field[2]}" = vmem ]; then
      run=(vmem_2g "${run[@]}")
    fi
    echo "case ${field[0]}"
    (
      cd "$dir/${field[0]}"
      expect_exit "${field[1]}" "${field[3]}" "${run[@]}"
    ) < /dev/null
  done
}

# vmem_2g COMMAND...: runs COMMAND in a subshell limited to 2 GiB of address space.
vmem_2g() (
  ulimit -v 2097152
  "$@"
)
