// Fixture: L2 wire-exhaustiveness violations over the directory wire
// enums (scanned as crates/directory/src/shard.rs): wildcard arms in
// matches over DirState and DirRegisterKind variants.

fn is_hit(state: DirState) -> bool {
    match state {
        DirState::Hit => true,
        _ => false,
    }
}

fn registers_holder(kind: DirRegisterKind) -> bool {
    match kind {
        DirRegisterKind::Active | DirRegisterKind::Checkpoint => true,
        _ => false,
    }
}
