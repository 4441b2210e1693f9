#!/bin/sh
# check_links.sh verifies that every relative link in the repository's
# markdown files points at a file (or directory) that exists, and that
# every markdown file a Go source file names (in a comment or a string)
# exists, relative to that file's directory or to the repository root.
# External http(s) and mailto links are skipped — CI must not depend on
# the network.
set -eu
cd "$(dirname "$0")/.."

fail=0
for md in $(find . -name '*.md' -not -path './.git/*'); do
    dir=$(dirname "$md")
    # Extract the (target) of every [text](target) pair, one per line.
    links=$(grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//' || true)
    for link in $links; do
        case "$link" in
        http://* | https://* | mailto:* | \#*) continue ;;
        esac
        target=${link%%#*} # strip in-page anchors
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ]; then
            echo "$md: broken link -> $link"
            fail=1
        fi
    done
done

for src in $(find . \( -path ./.git -o -path ./.bench_build \) -prune -o -name '*.go' -print); do
    dir=$(dirname "$src")
    names=$(grep -oE '[A-Za-z0-9_./-]+\.md([^A-Za-z0-9_]|$)' "$src" |
        sed -E 's/\.md[^A-Za-z0-9_]$/.md/' | sort -u || true)
    for name in $names; do
        if [ ! -e "$dir/$name" ] && [ ! -e "./$name" ]; then
            echo "$src: names missing markdown file $name"
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "check_links: FAILED"
    exit 1
fi
echo "check_links: OK"
