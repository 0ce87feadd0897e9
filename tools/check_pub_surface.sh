#!/usr/bin/env bash
# Public-surface gate: every `pub fn NAME` in a first-party library source
# (`crates/*/src/` or `src/`) must be named by some other Rust file, or it
# is a promise with no caller and should be private or gone.
#
# A hit is a `pub fn NAME` whose NAME appears, as a whole word, on no
# non-comment line (a line not starting with `//`) of any other `.rs` file
# under `crates/`, `src/`, `tests/`, `examples/` or `perfbench/src/`.
# `crates/model/` is exempt: its API mirrors `std` so the sync facade can
# swap one for the other.
#
# This is a heuristic. It matches names, not paths: a function passes when
# another file uses the same word for anything else (a different type's
# method, a local, a string). A pass proves nothing; a hit is certain.
#
# The scanner tests itself on every run: a fixture with one unused
# `pub fn` must be flagged, and a used one must pass, otherwise the gate
# refuses to report success.
#
# Usage: tools/check_pub_surface.sh [repo-root]   (exit 1 on hits)
set -u
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

scan() { # scan <root>  -> prints "file: pub fn NAME" per hit
    (
        cd "$1" || exit 2
        files=$(find crates src tests examples perfbench/src -name '*.rs' -type f 2>/dev/null | sort)
        [ -n "$files" ] || exit 0
        # shellcheck disable=SC2086
        awk '
            FNR == 1 { file = FILENAME }
            {
                line = $0
                sub(/^[ \t]+/, "", line)
                if (line ~ /^\/\//) next
                # Definitions in library sources, outside crates/model/.
                if ((file ~ /^crates\/[^\/]+\/src\// || file ~ /^src\//) &&
                    file !~ /^crates\/model\//) {
                    rest = line
                    while (match(rest, /(^|[^A-Za-z0-9_])pub fn [A-Za-z_][A-Za-z0-9_]*/)) {
                        def = substr(rest, RSTART, RLENGTH)
                        sub(/.*pub fn /, "", def)
                        defs[file SUBSEP def] = 1
                        rest = substr(rest, RSTART + RLENGTH)
                    }
                }
                # Every word on the line, once per file.
                rest = line
                while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
                    word = substr(rest, RSTART, RLENGTH)
                    if (!((file SUBSEP word) in seen)) {
                        seen[file SUBSEP word] = 1
                        nfiles[word]++
                    }
                    rest = substr(rest, RSTART + RLENGTH)
                }
            }
            END {
                # A definition line names its own NAME, so a NAME that
                # one file alone names has no caller elsewhere.
                for (key in defs) {
                    split(key, parts, SUBSEP)
                    if (nfiles[parts[2]] < 2) printf "%s: pub fn %s\n", parts[1], parts[2]
                }
            }
        ' $files | sort
    )
}

# --- scanner self-test (negative + positive fixture) -----------------------
selftest_dir=$(mktemp -d)
trap 'rm -rf "$selftest_dir"' EXIT
mkdir -p "$selftest_dir/crates/a/src" "$selftest_dir/crates/b/src" "$selftest_dir/crates/model/src"
cat > "$selftest_dir/crates/a/src/lib.rs" <<'EOF'
/// Called from crate b.
pub fn used_elsewhere() {}
/// Named only in a comment elsewhere.
pub fn unused_outside() {}
EOF
cat > "$selftest_dir/crates/b/src/lib.rs" <<'EOF'
// unused_outside is mentioned here, but only in a comment.
fn call() { a::used_elsewhere(); }
EOF
cat > "$selftest_dir/crates/model/src/lib.rs" <<'EOF'
pub fn exempt_mirror() {}
EOF
selftest=$(scan "$selftest_dir")
if [ "$selftest" != "crates/a/src/lib.rs: pub fn unused_outside" ]; then
    echo "check_pub_surface: SELF-TEST FAILED — expected exactly the fixture's unused pub fn, got:" >&2
    echo "${selftest:-<nothing>}" >&2
    exit 2
fi

# --- the audit -------------------------------------------------------------
hits=$(scan "$root")
if [ -n "$hits" ]; then
    echo "$hits"
    echo
    echo "error: public functions that no other file names."
    echo "Make a function its own file calls private; delete one that only"
    echo "its own unit tests call, or give it a caller outside its file."
    exit 1
fi
echo "check_pub_surface: every public function is named outside its file."
