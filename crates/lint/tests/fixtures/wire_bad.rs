// Fixture: L3 wire-exhaustiveness violation (scanned as
// crates/wire/src/status.rs): a wildcard arm in a match over Status
// variants.

fn retryable(status: &Status) -> bool {
    match status {
        Status::Timeout | Status::Overloaded => true,
        _ => false,
    }
}
