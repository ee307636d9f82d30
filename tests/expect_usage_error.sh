#!/usr/bin/env bash
# Runs one command line that must be rejected as a usage error: exit status
# exactly 1 (not a crash such as 134 from std::terminate) with an "error:"
# line on stderr.
#
#   tests/expect_usage_error.sh PROGRAM [ARGS...]
set -uo pipefail

stderr=$("$@" 2>&1 >/dev/null)
status=$?
printf '%s\n' "$stderr"
if [ "$status" -ne 1 ]; then
  echo "expected exit status 1, got $status" >&2
  exit 1
fi
if ! grep -q '^error:' <<<"$stderr"; then
  echo "expected an 'error:' line on stderr" >&2
  exit 1
fi
