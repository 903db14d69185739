//! The per-function analysis model the graph rules are built on.
//!
//! Each scanned file is parsed (with the [`lexer`](crate::lexer)'s
//! offset-preserving views) into a [`FileModel`]: function spans,
//! lock-guard acquisition sites with the locked *field's* name and an
//! approximate hold span, direct intra-crate call sites, blocking-call
//! sites, pool-submit closures, plus the wire-schema inventory (enum
//! declarations, `TAG_*` constants, `WireEncode`/`WireDecode` impl
//! blocks and `*_to_value`/`*_from_value` codec functions). The
//! [`Workspace`] ties the files together so the graph rules
//! (lock-order, blocking-discipline, wire-schema-drift) can reason
//! across files.
//!
//! ## Soundness caveats (by design — this is a linter, not a verifier)
//!
//! * Lock identity is the *declared field name* (qualified by the
//!   declaring file's stem), resolved through one level of local
//!   `let`-alias; locks reached through unresolvable aliases are
//!   dropped (under-approximation).
//! * Guard hold spans are lexical: a bound guard is held to the end of
//!   its enclosing block (or an explicit `drop(guard)`), a temporary
//!   guard to the end of its statement — including an attached
//!   `if`/`while`/`match` block, matching Rust's scrutinee temporary
//!   extension (over-approximation).
//! * The call graph is name-based and intra-crate: a call site
//!   resolves to *every* same-crate function with that name
//!   (over-approximation), and cross-crate calls are invisible
//!   (under-approximation). A method called on a struct field
//!   (`self.x.f.m(…)`) is narrowed through the field's declared type:
//!   only the same-crate `impl`s of that type count, so a field whose
//!   type is foreign (an `Arc<Gauge>` from another crate) reaches
//!   nothing. Trait-object fields keep the by-name resolution.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::lexer::{
    ident_at, ident_before, matching_brace, matching_paren_fwd, word_occurrences, SourceModel,
};

/// Methods that acquire a lock guard when called with no arguments.
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Blocking operations a pool worker must wrap in `blocking()`.
pub(crate) const BLOCKING_METHODS: [&str; 8] = [
    "recv_timeout",
    "wait",
    "wait_timeout",
    "sleep",
    "fsync",
    "connect",
    "dial",
    "join",
];

/// Call names that never resolve to interesting first-party functions
/// (std/collection vocabulary that would otherwise alias into the
/// approximate call graph and fabricate edges).
const CALL_DENYLIST: [&str; 25] = [
    "new",
    "clone",
    "default",
    "drop",
    "from",
    "into",
    "get",
    "insert",
    "remove",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "push",
    "pop",
    "iter",
    "next",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "min",
    "max",
    "to_string",
    "send",
];

const KEYWORDS: [&str; 26] = [
    "if", "else", "while", "for", "match", "loop", "return", "fn", "move", "in", "as", "let",
    "unsafe", "ref", "mut", "break", "continue", "where", "impl", "use", "pub", "crate", "super",
    "dyn", "box", "await",
];

/// One lock-guard acquisition: `self.….<field>.lock()/.read()/.write()`.
#[derive(Debug, Clone)]
pub(crate) struct LockSite {
    /// The locked field's declared name (post alias resolution).
    pub(crate) field: String,
    /// Byte offset of the acquisition method name.
    pub(crate) at: usize,
    /// Approximate end of the guard's hold span (byte offset).
    pub(crate) hold_end: usize,
}

/// One direct call site `name(…)` inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    pub(crate) callee: String,
    pub(crate) at: usize,
    /// Inside a `blocking(…)` guard argument (spare-injection scope).
    pub(crate) guarded: bool,
    /// Inside a `submit(…)`/`submit_traced(…)` closure argument.
    pub(crate) in_submit: bool,
    /// Inside a `spawn(…)` closure argument (runs on a fresh thread).
    pub(crate) in_spawn: bool,
    /// The struct field the method is called on (`f` in `x.f.m(…)`).
    pub(crate) recv_field: Option<String>,
}

/// A function by position: `(file index, fn index)` in the [`Workspace`].
pub(crate) type FnRef = (usize, usize);

/// One blocking-operation site.
#[derive(Debug, Clone)]
pub(crate) struct BlockSite {
    pub(crate) what: String,
    pub(crate) at: usize,
    pub(crate) guarded: bool,
    pub(crate) in_submit: bool,
    pub(crate) in_spawn: bool,
}

/// One function's analysis model.
#[derive(Debug, Clone)]
pub(crate) struct FnModel {
    pub(crate) name: String,
    /// The self type of the `impl` block the function sits in.
    pub(crate) impl_type: Option<String>,
    /// Byte span of the body (offsets of `{` and its match).
    pub(crate) body: (usize, usize),
    pub(crate) locks: Vec<LockSite>,
    pub(crate) calls: Vec<CallSite>,
    pub(crate) blocking: Vec<BlockSite>,
}

/// An `enum` declaration.
#[derive(Debug, Clone)]
pub(crate) struct EnumDef {
    pub(crate) name: String,
    pub(crate) variants: Vec<String>,
}

/// A `const TAG_*: u8 = N;` wire-tag constant declaration. Encode/
/// decode uses are counted workspace-wide by the wire-drift rule.
#[derive(Debug, Clone)]
pub(crate) struct TagConst {
    pub(crate) name: String,
    pub(crate) value: u64,
    pub(crate) line: usize,
}

/// One `Enum::Variant` reference inside a codec context.
#[derive(Debug, Clone)]
pub(crate) struct VariantRef {
    pub(crate) enum_name: String,
    pub(crate) variant: String,
    pub(crate) line: usize,
}

/// One `impl WireEncode/WireDecode for E` block's variant references.
#[derive(Debug, Clone)]
pub(crate) struct CodecImpl {
    pub(crate) enum_name: String,
    pub(crate) encode: bool,
    pub(crate) line: usize,
    pub(crate) refs: Vec<VariantRef>,
}

/// One `*_to_value` / `*_from_value` codec function's variant references.
#[derive(Debug, Clone)]
pub(crate) struct CodecFn {
    pub(crate) encode: bool,
    pub(crate) refs: Vec<VariantRef>,
}

/// One file's full analysis model.
pub(crate) struct FileModel {
    pub(crate) rel_path: String,
    pub(crate) stem: String,
    /// `crates/<key>/src/…` → `<key>`; top-level `src/…` → `root`.
    pub(crate) crate_key: String,
    pub(crate) model: SourceModel,
    pub(crate) fns: Vec<FnModel>,
    /// Field/static names declared as `Mutex<…>`/`RwLock<…>` here.
    pub(crate) lock_fields: Vec<String>,
    /// Struct fields declared here with their type (see [`head_type`]).
    pub(crate) field_types: Vec<(String, Option<String>)>,
    pub(crate) enums: Vec<EnumDef>,
    pub(crate) tags: Vec<TagConst>,
    pub(crate) impls: Vec<CodecImpl>,
    pub(crate) codec_fns: Vec<CodecFn>,
}

/// The workspace-wide model: every scanned file, plus the global lock
/// declaration map the lock-identity resolution uses.
pub(crate) struct Workspace {
    pub(crate) files: Vec<FileModel>,
    /// lock field name → `(crate, stem)` of the files declaring it.
    pub(crate) lock_decls: BTreeMap<String, BTreeSet<(String, String)>>,
    /// (crate, fn name) → every function of that name in the crate.
    fns_by_name: HashMap<(String, String), Vec<FnRef>>,
    /// (crate, field name) → the declared types of that field.
    field_types: HashMap<(String, String), Vec<Option<String>>>,
}

impl Workspace {
    pub(crate) fn build(files: &[(String, String)]) -> Workspace {
        // Pass 1: lex + declared lock fields (needed for alias
        // resolution before function models are built).
        let mut lexed: Vec<(String, SourceModel, Vec<String>)> = files
            .iter()
            .map(|(rel, src)| {
                let model = SourceModel::new(src);
                let locks = declared_lock_fields(&model);
                (rel.clone(), model, locks)
            })
            .collect();
        let mut lock_decls: BTreeMap<String, BTreeSet<(String, String)>> = BTreeMap::new();
        for (rel, _, locks) in &lexed {
            for f in locks {
                lock_decls
                    .entry(f.clone())
                    .or_default()
                    .insert((crate_key_of(rel), stem_of(rel)));
            }
        }
        let all_lock_fields: BTreeSet<String> = lock_decls.keys().cloned().collect();

        // Pass 2: per-file function + wire models.
        let file_models = lexed
            .drain(..)
            .map(|(rel, model, lock_fields)| {
                let fns = extract_fns(&model, &all_lock_fields);
                let field_types = extract_field_types(&model);
                let enums = extract_enums(&model);
                let tags = extract_tags(&model);
                let impls = extract_codec_impls(&model);
                let codec_fns = extract_codec_fns(&model, &fns);
                FileModel {
                    stem: stem_of(&rel),
                    crate_key: crate_key_of(&rel),
                    rel_path: rel,
                    model,
                    fns,
                    lock_fields,
                    field_types,
                    enums,
                    tags,
                    impls,
                    codec_fns,
                }
            })
            .collect::<Vec<FileModel>>();
        let mut fns_by_name: HashMap<(String, String), Vec<FnRef>> = HashMap::new();
        let mut field_types: HashMap<(String, String), Vec<Option<String>>> = HashMap::new();
        for (fi, file) in file_models.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                fns_by_name
                    .entry((file.crate_key.clone(), f.name.clone()))
                    .or_default()
                    .push((fi, gi));
            }
            for (field, ty) in &file.field_types {
                field_types
                    .entry((file.crate_key.clone(), field.clone()))
                    .or_default()
                    .push(ty.clone());
            }
        }
        Workspace {
            files: file_models,
            lock_decls,
            fns_by_name,
            field_types,
        }
    }

    /// The same-crate functions `call` (made in `file`) may reach: every
    /// function with the callee's name, narrowed to the `impl`s of the
    /// receiver field's declared type(s) when every declaration of that
    /// field names a concrete type. A type with no such `impl` in the
    /// crate reaches nothing.
    pub(crate) fn callees(&self, file: &FileModel, call: &CallSite) -> Vec<FnRef> {
        let key = (file.crate_key.clone(), call.callee.clone());
        let Some(named) = self.fns_by_name.get(&key) else {
            return Vec::new();
        };
        let types = call.recv_field.as_ref().and_then(|field| {
            let decls = self
                .field_types
                .get(&(file.crate_key.clone(), field.clone()))?;
            decls.iter().cloned().collect::<Option<Vec<String>>>()
        });
        match types {
            None => named.clone(),
            Some(types) => named
                .iter()
                .copied()
                .filter(|&(fi, gi)| {
                    let impl_type = &self.files[fi].fns[gi].impl_type;
                    impl_type.as_ref().is_some_and(|t| types.contains(t))
                })
                .collect(),
        }
    }

    /// The canonical identity of a lock field acquired in `file`:
    /// `<declaring-file-stem>.<field>`. A field declared in the
    /// acquiring file resolves locally; otherwise to its unique
    /// declaring file, in the workspace or else in the acquirer's crate
    /// (so a struct's methods may live in several files of one crate);
    /// ambiguous fields attribute to the acquirer.
    pub(crate) fn lock_id(&self, file: &FileModel, field: &str) -> String {
        if file.lock_fields.iter().any(|f| f == field) {
            return format!("{}.{field}", file.stem);
        }
        let decls = self.lock_decls.get(field);
        let unique = |mut decls: Vec<&(String, String)>| match decls.len() {
            1 => decls.pop().map(|(_, stem)| stem.clone()),
            _ => None,
        };
        let stem = decls
            .and_then(|d| unique(d.iter().collect()))
            .or_else(|| {
                let local = decls?.iter().filter(|(k, _)| *k == file.crate_key);
                unique(local.collect())
            })
            .unwrap_or_else(|| file.stem.clone());
        format!("{stem}.{field}")
    }

    /// Enum declarations across the whole workspace, name → variants.
    pub(crate) fn enum_map(&self) -> BTreeMap<&str, &EnumDef> {
        let mut map = BTreeMap::new();
        for file in &self.files {
            for e in &file.enums {
                map.entry(e.name.as_str()).or_insert(e);
            }
        }
        map
    }
}

pub(crate) fn stem_of(rel_path: &str) -> String {
    rel_path
        .rsplit('/')
        .next()
        .unwrap_or(rel_path)
        .trim_end_matches(".rs")
        .to_string()
}

pub(crate) fn crate_key_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "root".to_string(),
    }
}

/// Field/static names declared with a `Mutex<…>` / `RwLock<…>` type.
fn declared_lock_fields(model: &SourceModel) -> Vec<String> {
    let mut out = Vec::new();
    for ty in ["Mutex", "RwLock"] {
        for at in word_occurrences(&model.code, ty) {
            if model.code[at..].as_bytes().get(ty.len()) != Some(&b'<') {
                continue;
            }
            let line = model.line_of(at);
            if model.is_test_line(line) {
                continue;
            }
            // `name: Mutex<…>` / `name: Option<Mutex<…>>` /
            // `static NAME: Mutex<…>` — walk back over the type prefix
            // to the owning `:`, then take the identifier before it.
            let bytes = model.code.as_bytes();
            let mut j = at;
            let mut colon = None;
            while j > 0 {
                let b = bytes[j - 1];
                if b == b':' {
                    if j >= 2 && bytes[j - 2] == b':' {
                        break; // `Mutex::…` path, not a declaration
                    }
                    colon = Some(j - 1);
                    break;
                }
                if b.is_ascii_alphanumeric()
                    || matches!(b, b'_' | b'<' | b'>' | b' ' | b'\t' | b'&')
                {
                    j -= 1;
                } else {
                    break;
                }
            }
            let Some(name) = colon.and_then(|c| crate::lexer::ident_before(&model.code, c)) else {
                continue;
            };
            if !name.is_empty()
                && !name.bytes().next().is_some_and(|b| b.is_ascii_digit())
                && !out.contains(&name.to_string())
            {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// Extracts every function with a body, then attributes lock, call and
/// blocking sites to the innermost containing function.
fn extract_fns(model: &SourceModel, all_lock_fields: &BTreeSet<String>) -> Vec<FnModel> {
    let code = &model.code;
    let mut fns: Vec<FnModel> = Vec::new();
    for at in word_occurrences(code, "fn") {
        if model.is_test_line(model.line_of(at)) {
            continue;
        }
        let Some(name) = ident_at(code, skip_ws(code, at + 2)) else {
            continue;
        };
        let name_end = skip_ws(code, at + 2) + name.len();
        let Some(params_open) = code[name_end..].find('(').map(|p| name_end + p) else {
            continue;
        };
        let Some(params_close) = matching_paren_fwd(code, params_open) else {
            continue;
        };
        // Body `{` before any `;` (a `;` first means trait/extern decl).
        let mut body_open = None;
        let mut depth = 0i32;
        for (i, b) in code.bytes().enumerate().skip(params_close + 1) {
            match b {
                b'(' | b'[' | b'<' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth <= 0 => {
                    body_open = Some(i);
                    break;
                }
                b';' if depth <= 0 => break,
                b'>' => depth -= i32::from(code.as_bytes().get(i.wrapping_sub(1)) != Some(&b'-')),
                _ => {}
            }
        }
        let Some(open) = body_open else { continue };
        let Some(close) = matching_brace(code, open) else {
            continue;
        };
        fns.push(FnModel {
            name: name.to_string(),
            impl_type: None,
            body: (open, close),
            locks: Vec::new(),
            calls: Vec::new(),
            blocking: Vec::new(),
        });
    }

    // Innermost-function attribution helper.
    let innermost = |fns: &Vec<FnModel>, at: usize| -> Option<usize> {
        fns.iter()
            .enumerate()
            .filter(|(_, f)| f.body.0 < at && at < f.body.1)
            .min_by_key(|(_, f)| f.body.1 - f.body.0)
            .map(|(i, _)| i)
    };

    // Self types of the enclosing `impl` blocks (innermost wins).
    let impls = impl_blocks(model);
    for f in &mut fns {
        f.impl_type = impls
            .iter()
            .filter(|(span, _)| span.0 < f.body.0 && f.body.1 < span.1)
            .min_by_key(|(span, _)| span.1 - span.0)
            .map(|(_, ty)| ty.clone());
    }

    // Guard-argument spans: `blocking(…)`, `submit(…)`/`submit_traced(…)`,
    // and `spawn(…)` (whose closure runs later, on a fresh thread, with
    // none of the spawner's guards held).
    let blocking_spans = call_arg_spans(code, &["blocking"]);
    let submit_spans = call_arg_spans(code, &["submit", "submit_traced"]);
    let spawn_spans = call_arg_spans(code, &["spawn"]);
    let covered =
        |spans: &Vec<(usize, usize)>, at: usize| spans.iter().any(|&(s, e)| s < at && at < e);

    // Per-function alias maps (local `let x = …<lock field>…` bindings).
    let aliases: Vec<HashMap<String, String>> = fns
        .iter()
        .map(|f| collect_aliases(code, f.body, all_lock_fields))
        .collect();

    // Lock acquisition sites.
    for method in LOCK_METHODS {
        for at in word_occurrences(code, method) {
            if !code[at + method.len()..].starts_with("()") {
                continue;
            }
            let Some(dot) = at.checked_sub(1).filter(|&d| code.as_bytes()[d] == b'.') else {
                continue;
            };
            if model.is_test_line(model.line_of(at)) {
                continue;
            }
            let Some(recv) = ident_before(code, dot) else {
                continue;
            };
            let Some(idx) = innermost(&fns, at) else {
                continue;
            };
            let field = if all_lock_fields.contains(recv) {
                recv.to_string()
            } else if let Some(f) = aliases[idx].get(recv) {
                f.clone()
            } else {
                continue; // unresolvable receiver: dropped (caveat above)
            };
            let body_end = fns[idx].body.1;
            let hold_end = hold_span_end(code, at, method, body_end);
            fns[idx].locks.push(LockSite {
                field,
                at,
                hold_end,
            });
        }
    }

    // Call and blocking sites: every `ident(`.
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        let Some(name) = ident_before(code, i) else {
            continue;
        };
        if model.is_test_line(model.line_of(i)) {
            continue;
        }
        let Some(idx) = innermost(&fns, i) else {
            continue;
        };
        let guarded = covered(&blocking_spans, i);
        let in_submit = covered(&submit_spans, i);
        let in_spawn = covered(&spawn_spans, i);
        if BLOCKING_METHODS.contains(&name) {
            // Only `.wait(…)` / `::sleep(…)`-shaped sites: a leading
            // `.`/`::` distinguishes the operation from local fns that
            // merely share the word.
            let at = i - name.len();
            let lead = code[..at].trim_end();
            if lead.ends_with('.') || lead.ends_with("::") {
                fns[idx].blocking.push(BlockSite {
                    what: name.to_string(),
                    at,
                    guarded,
                    in_submit,
                    in_spawn,
                });
                continue;
            }
        }
        if name.bytes().next().is_some_and(|b| b.is_ascii_uppercase())
            || name.bytes().all(|b| b.is_ascii_digit())
            || KEYWORDS.contains(&name)
            || CALL_DENYLIST.contains(&name)
            || LOCK_METHODS.contains(&name)
            || BLOCKING_METHODS.contains(&name)
        {
            continue;
        }
        let at = i - name.len();
        fns[idx].calls.push(CallSite {
            callee: name.to_string(),
            at,
            guarded,
            in_submit,
            in_spawn,
            recv_field: receiver_field(code, at).map(str::to_string),
        });
    }
    for f in &mut fns {
        f.locks.sort_by_key(|l| l.at);
        f.calls.sort_by_key(|c| c.at);
        f.blocking.sort_by_key(|b| b.at);
    }
    fns
}

/// The field a method call at `at` is made on: `f` in `x.f.m(…)`. A
/// bare local or `self` receiver (`x.m(…)`) is not a field.
fn receiver_field(code: &str, at: usize) -> Option<&str> {
    let lead = code[..at].trim_end();
    let dot = lead.strip_suffix('.')?.len();
    let field = ident_before(code, dot)?;
    let before = code[..dot].trim_end();
    let before = before[..before.len() - field.len()].trim_end();
    (before.ends_with('.') && !before.ends_with("..")).then_some(field)
}

/// `impl` blocks at item position, as (brace span, self type).
fn impl_blocks(model: &SourceModel) -> Vec<((usize, usize), String)> {
    let code = &model.code;
    let mut out = Vec::new();
    for at in word_occurrences(code, "impl") {
        // `impl` in argument or return position (`f: impl Fn()`,
        // `-> impl Iterator`) opens no block.
        let lead = code[..at].trim_end();
        let item =
            lead.is_empty() || lead.ends_with(['{', '}', ';', ']']) || lead.ends_with("unsafe");
        if !item || model.is_test_line(model.line_of(at)) {
            continue;
        }
        let Some(open) = code[at..].find('{').map(|p| at + p) else {
            continue;
        };
        let Some(close) = matching_brace(code, open) else {
            continue;
        };
        let header = skip_generics(&code[at + 4..open]);
        let header = header.split(" where ").next().unwrap_or(header);
        let self_ty = header.rsplit(" for ").next().unwrap_or(header);
        if let Some(ty) = head_type(self_ty) {
            out.push(((open, close), ty));
        }
    }
    out
}

/// Text after a leading balanced `<…>` group (an `impl`'s generics).
fn skip_generics(text: &str) -> &str {
    let text = text.trim_start();
    if !text.starts_with('<') {
        return text;
    }
    let mut depth = 0i32;
    for (i, b) in text.bytes().enumerate() {
        match b {
            b'<' => depth += 1,
            b'>' if i > 0 && text.as_bytes()[i - 1] != b'-' => {
                depth -= 1;
                if depth == 0 {
                    return &text[i + 1..];
                }
            }
            _ => {}
        }
    }
    ""
}

/// The type whose methods a value of type `ty` exposes: the last path
/// segment, seen through references and the `Arc`/`Rc`/`Box` smart
/// pointers. `None` for trait objects and `impl Trait`, whose methods
/// belong to implementors the declaration does not name.
fn head_type(ty: &str) -> Option<String> {
    // `&'a mut T`, `&T` → `T`.
    let ty = ty.trim().trim_start_matches('&');
    let ty = match ty.strip_prefix('\'') {
        Some(lifetime) => lifetime.split_once(' ').map_or("", |(_, t)| t),
        None => ty,
    };
    let ty = ty
        .trim_start()
        .strip_prefix("mut ")
        .unwrap_or(ty)
        .trim_start();
    if ty.starts_with("dyn ") || ty.starts_with("impl ") {
        return None;
    }
    let path_end = ty
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(ty.len());
    let last = ty[..path_end].rsplit("::").next().unwrap_or("");
    if last.is_empty() {
        return None;
    }
    let rest = &ty[path_end..];
    if matches!(last, "Arc" | "Rc" | "Box") && rest.starts_with('<') {
        let inner = &rest[1..rest.rfind('>').unwrap_or(rest.len())];
        return head_type(inner);
    }
    Some(last.to_string())
}

/// Named struct fields declared in `model`, with their [`head_type`].
fn extract_field_types(model: &SourceModel) -> Vec<(String, Option<String>)> {
    let code = &model.code;
    let mut out = Vec::new();
    for at in word_occurrences(code, "struct") {
        if model.is_test_line(model.line_of(at)) {
            continue;
        }
        // A named-field body `{` before any `;` or `(` (unit and tuple
        // structs have no named fields).
        let Some(open) = code[at..]
            .find(['{', ';', '('])
            .map(|p| at + p)
            .filter(|&p| code.as_bytes()[p] == b'{')
        else {
            continue;
        };
        let Some(close) = matching_brace(code, open) else {
            continue;
        };
        let body = &code[open + 1..close];
        let mut depth = 0i32;
        let mut start = 0;
        for (i, b) in body.bytes().enumerate().chain([(body.len(), b',')]) {
            match b {
                b'<' | b'(' | b'[' | b'{' => depth += 1,
                b'>' if i > 0 && body.as_bytes()[i - 1] != b'-' => depth -= 1,
                b')' | b']' | b'}' => depth -= 1,
                b',' if depth == 0 => {
                    if let Some(field) = field_decl(&body[start..i]) {
                        out.push(field);
                    }
                    start = i + 1;
                }
                _ => {}
            }
        }
    }
    out
}

/// `[pub] name: Type` → `(name, head type)`.
fn field_decl(decl: &str) -> Option<(String, Option<String>)> {
    let bytes = decl.as_bytes();
    let colon = (0..bytes.len()).find(|&i| {
        bytes[i] == b':' && bytes.get(i + 1) != Some(&b':') && (i == 0 || bytes[i - 1] != b':')
    })?;
    let name = ident_before(decl, colon)?;
    Some((name.to_string(), head_type(&decl[colon + 1..])))
}

fn skip_ws(code: &str, mut at: usize) -> usize {
    let bytes = code.as_bytes();
    while at < bytes.len() && bytes[at].is_ascii_whitespace() {
        at += 1;
    }
    at
}

/// Argument spans `(start, end)` of calls to any of `names`.
fn call_arg_spans(code: &str, names: &[&str]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for name in names {
        for at in word_occurrences(code, name) {
            let open = at + name.len();
            if code.as_bytes().get(open) != Some(&b'(') {
                continue;
            }
            if let Some(close) = matching_paren_fwd(code, open) {
                spans.push((open, close));
            }
        }
    }
    spans
}

/// Local `let <x> = …;` aliases whose initializer mentions exactly one
/// known lock field: `let dir = self.inner.directory.as_ref()…` lets a
/// later `dir.lock()` resolve to `directory`.
fn collect_aliases(
    code: &str,
    body: (usize, usize),
    all_lock_fields: &BTreeSet<String>,
) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let slice = &code[body.0..body.1];
    for rel in word_occurrences(slice, "let") {
        let at = body.0 + rel;
        // Pattern between `let` and the first bare `=`.
        let bytes = code.as_bytes();
        let mut i = at + 3;
        let mut eq = None;
        while i < body.1 {
            match bytes[i] {
                b'=' if bytes.get(i + 1) != Some(&b'=') && bytes.get(i + 1) != Some(&b'>') => {
                    eq = Some(i);
                    break;
                }
                b';' | b'{' => break,
                _ => {}
            }
            i += 1;
        }
        let Some(eq) = eq else { continue };
        let pattern = &code[at + 3..eq];
        let binds: Vec<&str> = pattern
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .filter(|w| {
                !w.is_empty()
                    && !matches!(*w, "mut" | "ref" | "Some" | "Ok" | "Err" | "None" | "_")
                    && w.bytes().next().is_some_and(|b| b.is_ascii_lowercase())
            })
            .collect();
        if binds.len() != 1 {
            continue;
        }
        // Initializer: `=` to the first `;` or `{` at relative depth 0.
        let mut depth = 0i32;
        let mut end = body.1;
        let mut j = eq + 1;
        while j < body.1 {
            match bytes[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b';' | b'{' if depth <= 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let rhs = &code[eq + 1..end];
        let fields: Vec<&String> = all_lock_fields
            .iter()
            .filter(|f| !word_occurrences(rhs, f).is_empty())
            .collect();
        if fields.len() == 1 && binds[0] != fields[0].as_str() {
            out.insert(binds[0].to_string(), fields[0].clone());
        }
    }
    out
}

/// Approximate end of a guard's hold span.
///
/// A *bound* guard (`let g = x.lock();`) is held to the end of its
/// enclosing block, cut short by an explicit `drop(g)`. A *temporary*
/// (`x.lock().push(…)`, `match x.lock().get(…) { … }`) is held to the
/// end of its statement, including an attached block — mirroring
/// scrutinee temporary extension. Exception: in a plain `if`/`while`
/// condition (no `let`), Rust drops condition temporaries *before* the
/// branch body runs, so the hold ends at the opening brace.
fn hold_span_end(code: &str, at: usize, method: &str, body_end: usize) -> usize {
    let bytes = code.as_bytes();
    let call_close = at + method.len() + 1; // offset of `)`

    // Statement start: nearest `;`, `{` or `}` behind the site.
    let mut stmt_start = at;
    while stmt_start > 0 && !matches!(bytes[stmt_start - 1], b';' | b'{' | b'}') {
        stmt_start -= 1;
    }
    let stmt_head = code[stmt_start..at].trim_start();

    // Bound guard: `let <ident> = … .lock();` with the call ending the
    // initializer expression.
    let after = skip_ws(code, call_close + 1);
    if bytes.get(after) == Some(&b';') && stmt_head.starts_with("let ") {
        let pat = stmt_head[4..].split('=').next().unwrap_or("");
        let name = pat.trim().trim_start_matches("mut ").trim();
        if !name.is_empty() && name.bytes().all(crate::lexer::is_ident_char) {
            // Enclosing block: innermost `{` whose match is past the site.
            let block_end = enclosing_block_end(code, at, body_end);
            // An explicit drop(name) ends the hold early.
            for d in word_occurrences(&code[at..block_end], "drop") {
                let dat = at + d + 4;
                if bytes.get(dat) == Some(&b'(') {
                    if let Some(arg) = ident_at(code, skip_ws(code, dat + 1)) {
                        if arg == name {
                            return at + d;
                        }
                    }
                }
            }
            return block_end;
        }
    }

    // Temporary: scan forward to the end of the statement.
    let cond_stmt = is_condition_head(stmt_head);
    let mut depth = 0i32;
    let mut i = call_close + 1;
    while i < body_end {
        match bytes[i] {
            b'{' if depth == 0 && cond_stmt => return i,
            // A plain `=` at statement level means the guard sits in the
            // assignment's *place* expression; Rust evaluates the value
            // operand first, so nothing to the right runs under the lock.
            b'=' if depth == 0
                && !matches!(bytes.get(i + 1), Some(b'=' | b'>'))
                && i > 0
                && !matches!(
                    bytes[i - 1],
                    b'=' | b'!'
                        | b'<'
                        | b'>'
                        | b'+'
                        | b'-'
                        | b'*'
                        | b'/'
                        | b'%'
                        | b'&'
                        | b'|'
                        | b'^'
                ) =>
            {
                return i;
            }
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
                if depth == 0 {
                    // A block closed at statement level: the attached
                    // `if`/`match` body ends unless an `else` chains on.
                    let next = skip_ws(code, i + 1);
                    if ident_at(code, next) != Some("else") {
                        return i;
                    }
                }
            }
            b';' if depth <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    body_end
}

/// Whether a statement head is a plain `if`/`while` condition (not
/// `if let`/`while let`, whose scrutinee temporaries extend over the
/// body).
fn is_condition_head(head: &str) -> bool {
    let h = head.trim_start();
    let h = h.strip_prefix("else").map(str::trim_start).unwrap_or(h);
    for kw in ["if", "while"] {
        if let Some(rest) = h.strip_prefix(kw) {
            if rest.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
                continue;
            }
            return !rest.trim_start().starts_with("let ");
        }
    }
    false
}

/// End offset of the innermost `{…}` block containing `at`.
fn enclosing_block_end(code: &str, at: usize, body_end: usize) -> usize {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    let mut i = at;
    while i < body_end {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    body_end
}

// ================= Wire-schema inventory =================

fn extract_enums(model: &SourceModel) -> Vec<EnumDef> {
    let code = &model.code;
    let mut out = Vec::new();
    for at in word_occurrences(code, "enum") {
        if model.is_test_line(model.line_of(at)) {
            continue;
        }
        let Some(name) = ident_at(code, skip_ws(code, at + 4)) else {
            continue;
        };
        if !name.bytes().next().is_some_and(|b| b.is_ascii_uppercase()) {
            continue;
        }
        let Some(open) = code[at..].find('{').map(|p| at + p) else {
            continue;
        };
        // Generic enums (`enum E<T> {`) and where-clauses keep the `{`
        // on the decl; a `;` first means this was `use …::enum` noise.
        if code[at..open].contains(';') {
            continue;
        }
        let Some(close) = matching_brace(code, open) else {
            continue;
        };
        let body = &code[open + 1..close];
        let mut variants = Vec::new();
        let bytes = body.as_bytes();
        let mut depth = 0i32;
        let mut expect_variant = true;
        let mut i = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'{' | b'(' | b'[' | b'<' => depth += 1,
                b'}' | b')' | b']' | b'>' => depth -= 1,
                b',' if depth == 0 => expect_variant = true,
                b'#' => {
                    // Skip attribute groups `#[…]`.
                    if bytes.get(i + 1) == Some(&b'[') {
                        let mut d = 0i32;
                        let mut j = i + 1;
                        while j < bytes.len() {
                            match bytes[j] {
                                b'[' => d += 1,
                                b']' => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        i = j;
                    }
                }
                b if depth == 0 && expect_variant && b.is_ascii_uppercase() => {
                    if let Some(v) = ident_at(body, i) {
                        variants.push(v.to_string());
                        i += v.len();
                        expect_variant = false;
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        out.push(EnumDef {
            name: name.to_string(),
            variants,
        });
    }
    out
}

fn extract_tags(model: &SourceModel) -> Vec<TagConst> {
    let code = &model.code;
    let mut out: Vec<TagConst> = Vec::new();
    for at in word_occurrences(code, "const") {
        if model.is_test_line(model.line_of(at)) {
            continue;
        }
        let Some(name) = ident_at(code, skip_ws(code, at + 5)) else {
            continue;
        };
        if !name.starts_with("TAG_") {
            continue;
        }
        let line_code = model.code_line(model.line_of(at));
        let Some(value) = line_code
            .split('=')
            .nth(1)
            .and_then(|v| v.trim().trim_end_matches(';').trim().parse::<u64>().ok())
        else {
            continue;
        };
        out.push(TagConst {
            name: name.to_string(),
            value,
            line: model.line_of(at),
        });
    }
    out
}

/// `Enum::Variant` references within `span` (uppercase enum name,
/// uppercase variant — module paths and assoc fns stay out).
fn variant_refs(model: &SourceModel, span: (usize, usize)) -> Vec<VariantRef> {
    let code = &model.code;
    let slice = &code[span.0..span.1];
    let bytes = slice.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        if bytes[i] == b':' && bytes[i + 1] == b':' {
            let Some(enum_name) = ident_before(slice, i) else {
                i += 2;
                continue;
            };
            let variant_at = skip_ws(slice, i + 2);
            let Some(variant) = ident_at(slice, variant_at) else {
                i += 2;
                continue;
            };
            let e_upper = enum_name
                .bytes()
                .next()
                .is_some_and(|b| b.is_ascii_uppercase());
            let v_upper = variant
                .bytes()
                .next()
                .is_some_and(|b| b.is_ascii_uppercase());
            // Exclude deeper paths (`a::b::c`) on the variant side.
            let after = variant_at + variant.len();
            let deeper = slice[after..].trim_start().starts_with("::");
            if e_upper && v_upper && !deeper {
                out.push(VariantRef {
                    enum_name: enum_name.to_string(),
                    variant: variant.to_string(),
                    line: model.line_of(span.0 + i),
                });
            }
            i = variant_at + variant.len();
        } else {
            i += 1;
        }
    }
    out
}

fn extract_codec_impls(model: &SourceModel) -> Vec<CodecImpl> {
    let code = &model.code;
    let mut out = Vec::new();
    for at in word_occurrences(code, "impl") {
        if model.is_test_line(model.line_of(at)) {
            continue;
        }
        let Some(open) = code[at..].find('{').map(|p| at + p) else {
            continue;
        };
        let header = &code[at..open];
        if header.contains(';') {
            continue;
        }
        let encode = header.contains("WireEncode for");
        let decode = header.contains("WireDecode for");
        if !encode && !decode {
            continue;
        }
        let Some(target) = header.split("for").nth(1) else {
            continue;
        };
        let target = target.trim();
        let Some(enum_name) = ident_at(target, 0) else {
            continue;
        };
        let Some(close) = matching_brace(code, open) else {
            continue;
        };
        out.push(CodecImpl {
            enum_name: enum_name.to_string(),
            encode,
            line: model.line_of(at),
            refs: variant_refs(model, (open, close)),
        });
    }
    out
}

fn extract_codec_fns(model: &SourceModel, fns: &[FnModel]) -> Vec<CodecFn> {
    fns.iter()
        .filter_map(|f| {
            let encode = f.name.ends_with("to_value");
            let decode = f.name.ends_with("from_value");
            if !encode && !decode {
                return None;
            }
            Some(CodecFn {
                encode,
                refs: variant_refs(model, f.body),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::build(&[("crates/core/src/x.rs".to_string(), src.to_string())])
    }

    #[test]
    fn bound_guard_holds_to_block_end_and_drop_cuts_it() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                   fn f(&self) {\n    let g = self.a.lock();\n    self.b.lock();\n    drop(g);\n    self.b.lock();\n}\n}\n";
        let w = ws(src);
        let f = &w.files[0].fns[0];
        assert_eq!(f.locks.len(), 3);
        let a = &f.locks[0];
        assert_eq!(a.field, "a");
        // `a` covers the first b acquisition but not the post-drop one.
        assert!(f.locks[1].at < a.hold_end, "{a:?} vs {:?}", f.locks[1]);
        assert!(f.locks[2].at > a.hold_end);
    }

    #[test]
    fn temporary_guard_ends_with_its_statement() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                   fn f(&self) {\n    self.a.lock();\n    self.b.lock();\n}\n}\n";
        let w = ws(src);
        let f = &w.files[0].fns[0];
        assert!(f.locks[1].at > f.locks[0].hold_end);
    }

    #[test]
    fn let_alias_resolves_lock_field() {
        let src = "struct S { directory: Option<Mutex<u32>> }\n\
                   impl S {\n\
                   fn f(&self) {\n    let dir = self.directory.as_ref();\n    dir.lock();\n}\n}\n";
        let w = ws(src);
        let f = &w.files[0].fns[0];
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].field, "directory");
    }

    #[test]
    fn blocking_sites_and_guards_are_seen() {
        let src = "impl S {\n\
                   fn f(&self) {\n    self.pool.blocking(|| self.w.wait(1));\n    self.w.wait(2);\n}\n}\n";
        let w = ws(src);
        let f = &w.files[0].fns[0];
        assert_eq!(f.blocking.len(), 2);
        assert!(f.blocking[0].guarded);
        assert!(!f.blocking[1].guarded);
    }

    #[test]
    fn enum_and_tag_inventory() {
        let src = "pub enum E { A, B(u8), C { x: u8 } }\n\
                   pub const TAG_A: u8 = 0;\n\
                   pub const TAG_B: u8 = 1;\n";
        let w = ws(src);
        let file = &w.files[0];
        assert_eq!(file.enums[0].variants, vec!["A", "B", "C"]);
        assert_eq!(file.tags.len(), 2);
        assert_eq!(file.tags[1].value, 1);
    }
}
