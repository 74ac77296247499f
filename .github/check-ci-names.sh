#!/usr/bin/env bash
# Fails when a test, benchmark, example or fuzz target that a `go test`
# line of the CI workflow names in its -run, -bench or -fuzz list matches
# nothing. A renamed test otherwise drops out of its step silently: the
# step still passes, having run nothing.
#
# Every alternative of a `a|b|c` list is checked on its own, with
# `go test -list` over the packages that line names.
#
# Usage: bash .github/check-ci-names.sh [workflow.yml]
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
status=0

while IFS= read -r line; do
	line=${line#*go test }
	read -ra words <<<"$line"
	pkgs=()
	lists=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]}
		case $w in
		-run=* | -bench=* | -fuzz=*) lists+=("${w#*=}") ;;
		-run | -bench | -fuzz) lists+=("${words[i + 1]}"); i=$((i + 1)) ;;
		. | ./*) pkgs+=("$w") ;;
		'|') break ;; # the rest is a pipe into another command
		esac
	done
	[ ${#pkgs[@]} -gt 0 ] || pkgs=(.)
	for list in "${lists[@]}"; do
		list=${list//\'/}
		case $list in '^$' | .) continue ;; esac # "none" and "all" name nothing
		IFS='|' read -ra alts <<<"$list"
		for alt in "${alts[@]}"; do
			out=$(go test -list "$alt" "${pkgs[@]}")
			if ! grep -qvE '^(ok|\?) ' <<<"$out"; then
				echo "CI names '$alt' (in '$list' over ${pkgs[*]}), which matches nothing"
				status=1
			fi
		done
	done
done < <(grep -E 'go test .*-(run|bench|fuzz)' "$workflow")

exit $status
