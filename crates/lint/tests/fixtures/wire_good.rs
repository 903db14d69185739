// Fixture: L2 wire-exhaustiveness clean file (scanned as
// crates/wire/src/status.rs): a fully enumerated Status match, a Status
// match with a *named* binding arm for the remaining variants (legal),
// and a non-wire match where a wildcard is fine.

fn label(status: &Status) -> &'static str {
    match status {
        Status::Ok => "ok",
        Status::Timeout => "timeout",
        Status::Overloaded => "overloaded",
    }
}

fn describe(status: &Status) -> String {
    match status {
        Status::Ok => "ok".to_string(),
        other => format!("failed: {other:?}"),
    }
}

fn first_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}
