//! A size budget for the change log, the way `size_budget.rs` pins the
//! sizes of hot types.
//!
//! Each change appends one `- PR <n>: …` line to `CHANGES.md`. Entries that
//! restated their run lists reached 8.7 KB; with the runs kept in
//! `docs/results/PR<n>.md`, an entry says what changed and links its record
//! file, and a new one must fit in 4 KB.

/// The most bytes one entry line may hold.
const ENTRY_BUDGET: usize = 4096;

/// The first PR whose entry the budget binds; older entries are left as
/// they were written.
const FIRST_BUDGETED_PR: u32 = 46;

/// `(PR number, bytes)` of every `- PR <n>:` entry line, in file order.
fn entries(changes: &str) -> Vec<(u32, usize)> {
    changes
        .lines()
        .filter_map(|line| {
            let (n, _) = line.strip_prefix("- PR ")?.split_once(':')?;
            Some((n.parse().ok()?, line.len()))
        })
        .collect()
}

#[test]
fn new_changes_entries_stay_within_their_budget() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/CHANGES.md");
    let changes = std::fs::read_to_string(path).expect("CHANGES.md is readable");
    let entries = entries(&changes);
    // The parser still finds the old entries, so a change of format cannot
    // leave the budget checking nothing.
    assert!(
        entries.iter().any(|&(n, _)| n == FIRST_BUDGETED_PR - 1),
        "no `- PR {}:` entry found",
        FIRST_BUDGETED_PR - 1
    );
    for (n, bytes) in entries {
        if n >= FIRST_BUDGETED_PR {
            assert!(
                bytes <= ENTRY_BUDGET,
                "PR {n}'s entry is {bytes} bytes, over the {ENTRY_BUDGET}-byte budget"
            );
        }
    }
}

#[test]
fn entries_are_read_by_number_and_byte_length() {
    let text = "# Changes\n- PR 7: é\n- PR x: no number\nFOUND: not an entry\n- PR 46: ok";
    assert_eq!(entries(text), [(7, 10), (46, 11)]);
}
