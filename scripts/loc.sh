#!/bin/sh
# Non-test LOC ledger: prints the non-test Go lines of every package in
# the module (or of the packages named as arguments), one package per
# line, then the total. _test.go files and testdata/ are excluded: go
# list reports only a package's non-test GoFiles, and never descends
# into testdata.
#
# Usage:
#
#	scripts/loc.sh                       # every package in the module
#	scripts/loc.sh ./internal/core ./internal/lint
set -eu

cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- ./...
go list -f '{{.ImportPath}} {{.Dir}}{{range .GoFiles}} {{.}}{{end}}' "$@" | while read -r pkg dir files; do
	[ -n "$files" ] || continue
	n=$(cd "$dir" && cat $files | wc -l)
	printf '%6d %s\n' "$n" "$pkg"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
