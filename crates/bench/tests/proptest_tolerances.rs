//! Robustness of the tolerance-file parser: mangled copies of the
//! committed `tests/golden/tolerances.txt` parse to `Ok` or `Err`, never a
//! panic, and an `Ok` never hides a repeated prefix.

use proptest::prelude::*;
use wsp_bench::diff::Tolerances;

const GOLDEN: &str = include_str!("../../../tests/golden/tolerances.txt");

/// The prefix a line would define, if it is not blank or a comment.
fn prefix_of(line: &str) -> Option<&str> {
    line.split('#')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .next()
}

proptest! {
    /// Line swaps, deletions, repeated rules and byte edits of the golden
    /// file parse to `Ok` or `Err`, never a panic; whatever parses defines
    /// each prefix once.
    #[test]
    fn mangled_tolerance_files_never_panic(
        edits in proptest::collection::vec((0u8..4, any::<usize>(), any::<usize>(), any::<u8>()), 0..6),
    ) {
        let mut lines: Vec<String> = GOLDEN.lines().map(str::to_owned).collect();
        for &(op, a, b, byte) in &edits {
            if lines.is_empty() {
                break;
            }
            let n = lines.len();
            match op {
                0 => lines.swap(a % n, b % n),
                1 => {
                    lines.remove(a % n);
                }
                2 => {
                    // Repeat a rule line (any line once none is left).
                    let rules: Vec<&String> =
                        lines.iter().filter(|l| prefix_of(l).is_some()).collect();
                    let line = if rules.is_empty() {
                        &lines[a % n]
                    } else {
                        rules[a % rules.len()]
                    };
                    lines.insert(b % (n + 1), line.clone());
                }
                _ => {
                    let mut bytes = lines[a % n].clone().into_bytes();
                    if !bytes.is_empty() {
                        let at = b % bytes.len();
                        bytes[at] = byte;
                    }
                    lines[a % n] = String::from_utf8_lossy(&bytes).into_owned();
                }
            }
        }
        let mangled = lines.join("\n");
        if Tolerances::parse(&mangled).is_ok() {
            let mut prefixes: Vec<&str> = mangled.lines().filter_map(prefix_of).collect();
            let defined = prefixes.len();
            prefixes.sort_unstable();
            prefixes.dedup();
            prop_assert_eq!(prefixes.len(), defined, "repeated prefix accepted: {:?}", mangled);
        }
    }
}
