#!/bin/sh
# usage: compare_artifacts.sh A B
# Exits non-zero unless artifacts directories A and B hold the same file names
# and every file except manifest.json (which records stage timings) is equal
# byte for byte.
set -e
test "$(ls "$1")" = "$(ls "$2")"
for name in $(ls "$1"); do
  test "$name" = manifest.json || cmp "$1/$name" "$2/$name"
done
