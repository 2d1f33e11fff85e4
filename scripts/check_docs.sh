#!/usr/bin/env bash
# Documentation link checker. Fails (exit 1) when:
#   * a relative markdown link in README.md or docs/*.md points at a path
#     that does not exist (resolved against the linking file's directory), or
#   * a docs/*.md file is not linked from the docs/README.md index, or
#   * a docs/api_overview.md table row names a symbol that none of the
#     headers in its second column contains, or
#   * a `| Knob |` table in docs/*.md names a knob that is not a field of
#     ServiceConfig or RouterConfig, or
#   * a `| Key | Counts |` table in docs/*.md names a stats key that neither
#     ServeStatsSnapshot::to_json nor FleetStats::to_json emits.
# External links (http/https/mailto) and pure #anchors are not checked.
# Run from anywhere: scripts/check_docs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

check_file() {
  local file="$1"
  local dir
  dir="$(dirname "$file")"
  # Markdown inline links: capture the (...) target of every [...](...).
  # Fenced code blocks are skipped — C++ lambdas look like markdown links.
  local targets
  targets="$(awk '/^```/ { fence = !fence; next } !fence' "$file" \
    | grep -oE '\]\([^)]+\)' | sed -E 's/^\]\(//; s/\)$//')" || true
  local t
  while IFS= read -r t; do
    [[ -z "$t" ]] && continue
    case "$t" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    local path="${t%%#*}"          # strip any #anchor suffix
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" ]]; then
      echo "BROKEN LINK: $file -> $t (resolved $dir/$path)"
      fail=1
    fi
  done <<< "$targets"
}

for f in README.md docs/*.md; do
  check_file "$f"
done

# Every docs/ page must be reachable from the index.
for f in docs/*.md; do
  base="$(basename "$f")"
  [[ "$base" == "README.md" ]] && continue
  if ! grep -q "($base)" docs/README.md; then
    echo "UNINDEXED DOC: $f is not linked from docs/README.md"
    fail=1
  fi
done

# Every DRONET_* configuration surface must be documented in
# docs/build_flags.md: CMake options/cache variables declared in any
# CMakeLists.txt, and runtime environment toggles read via getenv in source.
flags="$( { grep -rhoE '(option|set)\(DRONET_[A-Z0-9_]+' \
              --include=CMakeLists.txt . | sed -E 's/^(option|set)\(//'; \
            grep -rhoE 'getenv\("DRONET_[A-Z0-9_]+"' src tools \
              | sed -E 's/^getenv\("//; s/"$//'; } | sort -u)" || true
while IFS= read -r flag; do
  [[ -z "$flag" ]] && continue
  if ! grep -q "$flag" docs/build_flags.md; then
    echo "UNDOCUMENTED FLAG: $flag missing from docs/build_flags.md"
    fail=1
  fi
done <<< "$flags"

# Every symbol in a docs/api_overview.md table row must exist: each
# backticked name in the first column (its last `::` part, with `a/b` lists
# split) must appear as a word in a header named in the second column.
while IFS= read -r row; do
  headers="$(cut -d'|' -f3 <<< "$row" | grep -oE '`[^`]+\.hpp`' | tr -d '`')" || true
  [[ -z "$headers" ]] && continue
  names="$(cut -d'|' -f2 <<< "$row" | grep -oE '`[^`]+`' | tr -d '`' \
            | sed -E 's/.*:://' | tr '/' '\n')" || true
  while IFS= read -r name; do
    [[ -z "$name" ]] && continue
    found=0
    while IFS= read -r header; do
      if grep -qwF -- "$name" "src/$header" 2>/dev/null; then found=1; break; fi
    done <<< "$headers"
    if [[ "$found" -eq 0 ]]; then
      echo "STALE API ROW: docs/api_overview.md names $name, not in" $headers
      fail=1
    fi
  done <<< "$names"
done < <(grep -E '^\| `' docs/api_overview.md)

# Every knob a `| Knob |` table names must be a config field: each
# backticked name in the first column must be declared in the body of
# ServiceConfig or RouterConfig, so a deleted knob cannot linger in a table.
config_bodies="$(awk '/^struct (ServiceConfig|RouterConfig) \{/ { body = 1 }
                      body; /^\};/ { body = 0 }' \
                   src/serve/detection_service.hpp src/cluster/router.hpp)"
while IFS='|' read -r doc knob_cell; do
  knobs="$(grep -oE '`[^`]+`' <<< "$knob_cell" | tr -d '`')" || true
  while IFS= read -r knob; do
    [[ -z "$knob" ]] && continue
    if ! grep -qE "^ +[^ /][^=;]* $knob( = [^;]*)?;" <<< "$config_bodies"; then
      echo "UNKNOWN KNOB: $doc names $knob, not a field of ServiceConfig or RouterConfig"
      fail=1
    fi
  done <<< "$knobs"
done < <(awk -F'|' '/^\| Knob \|/ { table = 1; next }
                    table && !/^\|/ { table = 0 }
                    table { print FILENAME "|" $2 }' docs/*.md)

# Every key a `| Key | Counts |` table names must be emitted: each backticked
# name in the first column must appear as "key": in the body of
# ServeStatsSnapshot::to_json or FleetStats::to_json, so a deleted stats key
# cannot linger in a table.
emitters="$(awk '/^std::string (ServeStatsSnapshot|FleetStats)::to_json\(\) const \{/ { body = 1 }
                 body; /^\}/ { body = 0 }' \
              src/serve/serve_stats.cpp src/cluster/router.cpp)"
while IFS='|' read -r doc key_cell; do
  keys="$(grep -oE '`[^`]+`' <<< "$key_cell" | tr -d '`')" || true
  while IFS= read -r key; do
    [[ -z "$key" ]] && continue
    if ! grep -qF "\\\"$key\\\":" <<< "$emitters"; then
      echo "UNKNOWN STATS KEY: $doc names $key, not emitted by ServeStatsSnapshot::to_json or FleetStats::to_json"
      fail=1
    fi
  done <<< "$keys"
done < <(awk -F'|' '/^\| Key \| Counts \|/ { table = 1; next }
                    table && !/^\|/ { table = 0 }
                    table { print FILENAME "|" $2 }' docs/*.md)

if [[ "$fail" -ne 0 ]]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: all links resolve, all docs indexed, all API rows, knobs and stats keys found"
