#!/bin/sh
# check_links.sh — verify that every relative markdown link in the
# repo's published documentation (README, docs/, examples/) resolves
# to an existing file, and that every markdown file a Go comment names
# (`see docs/API.md`) exists, relative to the repo root or to the
# commenting file's directory. External links (http/https) and pure
# anchors are skipped; no network access needed. Working-notes files
# carried over from external sources (SNIPPETS.md, PAPERS.md, ...) are
# out of scope as link sources.
#
# Usage: scripts/check_links.sh   (from the repo root)
set -eu

fail=0
for md in README.md docs/*.md examples/*/README.md; do
    [ -f "$md" ] || continue
    dir=$(dirname "$md")
    # Extract (target) parts of [text](target) links, one per line.
    grep -o '\[[^]]*\]([^)]*)' "$md" 2>/dev/null | sed 's/.*(\(.*\))/\1/' |
    while IFS= read -r target; do
        case "$target" in
        http://*|https://*|mailto:*|\#*) continue ;;
        esac
        # Strip a trailing anchor.
        path=${target%%#*}
        [ -n "$path" ] || continue
        if [ ! -e "$dir/$path" ]; then
            echo "broken link in $md: $target" >&2
            echo broken > /tmp/check_links_failed.$$
        fi
    done
    if [ -f /tmp/check_links_failed.$$ ]; then
        rm -f /tmp/check_links_failed.$$
        fail=1
    fi
done

# Markdown files cited in Go comments: the text after the first // on
# a line, URLs removed, every name ending in .md.
git ls-files '*.go' | while IFS= read -r go; do
    dir=$(dirname "$go")
    awk '{
        i = index($0, "//"); if (i == 0) next
        c = substr($0, i + 2)
        gsub(/[a-z]+:\/\/[^ ]*/, "", c)
        while (match(c, /[A-Za-z0-9_][A-Za-z0-9_.\/-]*\.md([^A-Za-z0-9_]|$)/)) {
            name = substr(c, RSTART, RLENGTH)
            sub(/[^d]$/, "", name)
            print FNR ":" name
            c = substr(c, RSTART + RLENGTH)
        }
    }' "$go" |
    while IFS=: read -r line name; do
        if [ ! -e "$name" ] && [ ! -e "$dir/$name" ]; then
            echo "$go:$line: comment cites $name, which does not exist" >&2
            echo broken > /tmp/check_links_failed.$$
        fi
    done
done
if [ -f /tmp/check_links_failed.$$ ]; then
    rm -f /tmp/check_links_failed.$$
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "check_links.sh: broken links found" >&2
    exit 1
fi
echo "check_links.sh: all relative markdown links and Go comment citations resolve"
