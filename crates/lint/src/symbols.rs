//! Per-file symbol extraction: the facts the interprocedural rules run
//! on. One pass over a file produces a [`FileFacts`] — function
//! definitions with their `impl` context, call sites, panic sites,
//! `DetRng` stream-derivation sites, the kernels its `// lint:` markers
//! declare, and the file-local findings of R4–R6 — and nothing else
//! about the file is needed afterwards: the global passes (R5 duplicate
//! labels, R7 reachability, the harness and proof cross-checks) run on
//! the facts alone.
//!
//! Name resolution here is deliberately token-shaped (see `callgraph`
//! for how the approximation is kept sound for R7): we record *what the
//! call site says* — method call, `Type::func` path call, or free call —
//! and let the call graph decide what it can bind to.

use crate::lexer::{Tok, Token};
use crate::rules;
use crate::scan::{skip_attr, Allow, BadAllow, FileScan, Marker, MarkerKind};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallVia {
    /// `receiver.name(...)` — resolved by name across the workspace
    /// (minus the std-collision skip list).
    Method,
    /// `Qual::name(...)` — resolved against `impl Qual` blocks;
    /// `self`/`Self` qualifiers resolve within the caller's impl type.
    Path(String),
    /// Bare `name(...)` — resolved against free functions.
    Free,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    pub name: String,
    pub via: CallVia,
    pub line: u32,
}

/// One panicking construct inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    pub line: u32,
    /// Display form: `unwrap()`, `expect()`, `panic!`, `` index `v[..]` ``, ...
    pub what: String,
}

/// One non-test `fn` definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    pub name: String,
    /// The self type when defined inside `impl Type` / `impl Tr for Type`.
    pub impl_type: Option<String>,
    /// `pub` or `pub(...)` — any visibility beyond private counts: R7
    /// treats crate-visible `try_*` functions as fallible entry points
    /// too, which only widens coverage.
    pub is_pub: bool,
    pub line: u32,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
}

/// Which `DetRng` constructor a derivation site uses. `substream` and
/// `substream_indexed` hash the label differently (`substream_indexed`
/// remixes with the task id), so identical labels across *different*
/// kinds do not collide — R5 keys duplicates on (kind, label). A
/// hoisted-label family, `substreams(seed, label)`, derives exactly the
/// `substream_indexed` streams of its label and counts as that kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RngKind {
    Stream,
    Substream,
    SubstreamIndexed,
}

impl RngKind {
    pub fn ctor(self) -> &'static str {
        match self {
            RngKind::Stream => "stream",
            RngKind::Substream => "substream",
            RngKind::SubstreamIndexed => "substream_indexed",
        }
    }
}

/// A `DetRng::{stream,substream,substream_indexed}` call site with a
/// literal label (non-literal labels become local R5 findings instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RngSite {
    pub kind: RngKind,
    pub label: String,
    pub line: u32,
}

/// A rule finding before allow-resolution (local or global).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalFinding {
    pub rule: String,
    pub line: u32,
    pub message: String,
}

/// A function its `// lint:` marker declares a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    pub func: String,
    pub marker: Marker,
}

/// Everything the global passes need to know about one file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FileFacts {
    pub rel_path: String,
    pub fns: Vec<FnDef>,
    /// Literal-label `DetRng` derivation sites (for the R5 global
    /// duplicate check).
    pub rng_sites: Vec<RngSite>,
    /// The marked kernels, in source order.
    pub kernels: Vec<Kernel>,
    /// R4–R6 findings local to this file (pre allow-resolution).
    pub local: Vec<LocalFinding>,
    pub allows: Vec<Allow>,
    pub bad_allows: Vec<BadAllow>,
}

/// The sweep engine's private fan-out core, which every `TrialPlan`
/// terminal calls with task closures: a distinctive name, so any call
/// counts. Keeps the R5 closure-capture and R6 fold checks on the sweep
/// internals.
const PARALLEL_EXEC_ENTRIES: &[&str] = &["fan_out"];

/// `TrialPlan` methods that take task closures: generic names, so they
/// only count when the call chain demonstrably starts from `TrialPlan`
/// (or passes an `Exec` first).
const PARALLEL_PLAN_ENTRIES: &[&str] = &["run", "run_with", "sum", "fold", "fold_checkpointed"];

/// Keywords that look like calls when followed by `(`.
fn is_call_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while" | "for" | "match" | "loop" | "return" | "fn" | "in" | "as" | "move"
    )
}

/// Extract the facts for one file. This is the only place source text is
/// read; everything downstream (global rules, the report) consumes
/// `FileFacts`.
pub fn extract(rel_path: &str, src: &str) -> FileFacts {
    let scan = FileScan::of(src);
    let mut facts = FileFacts {
        rel_path: rel_path.to_string(),
        allows: scan.allows.clone(),
        bad_allows: scan.bad_allows.clone(),
        ..FileFacts::default()
    };

    let toks = &scan.tokens;
    let impls = find_impl_spans(toks);
    let targets: Vec<Option<usize>> = scan
        .markers
        .iter()
        .map(|m| marked_fn(&scan, m.line))
        .collect();
    let mut attached = vec![false; targets.len()];
    // (fn token, marker line) of every `exact-fold` kernel.
    let mut exact_folds: Vec<(usize, u32)> = Vec::new();

    // Function definitions with calls and panic sites.
    let mut bodies: Vec<(usize, usize, usize)> = Vec::new(); // (fn idx, open, close)
    for i in 0..toks.len() {
        if toks[i].tok != Tok::Ident("fn".into()) || scan.is_test_code(i) {
            continue;
        }
        let Some(name) = ident_at(toks, i + 1) else {
            continue;
        };
        let Some((open, close)) = body_span(toks, i) else {
            continue;
        };
        bodies.push((i, open, close));
        for (k, m) in scan.markers.iter().enumerate() {
            if targets[k] != Some(i) {
                continue;
            }
            attached[k] = true;
            facts.kernels.push(Kernel {
                func: name.to_string(),
                marker: m.clone(),
            });
            match m.kind {
                MarkerKind::NoAlloc => {
                    let found = rules::no_alloc_findings(toks, (open, close), name);
                    facts.local.extend(found);
                }
                MarkerKind::Exact => exact_folds.push((i, m.line)),
            }
        }
        let impl_type = impls
            .iter()
            .filter(|(a, b, _)| *a <= i && i < *b)
            .max_by_key(|(a, _, _)| *a)
            .map(|(_, _, ty)| ty.clone());
        let mut def = FnDef {
            name: name.to_string(),
            impl_type,
            is_pub: detect_pub(toks, i),
            line: toks[i].line,
            calls: Vec::new(),
            panics: Vec::new(),
        };
        collect_calls_and_panics(&scan, open, close, &mut def);
        facts.fns.push(def);
    }
    // A marker that declares no function would silently drop its
    // kernel from the list.
    for (m, _) in scan.markers.iter().zip(&attached).filter(|(_, a)| !**a) {
        facts.local.push(LocalFinding {
            rule: m.kind.rule().into(),
            line: m.line,
            message: format!(
                "`lint: {}` marker above no non-test fn; put it on the line directly \
                 above the kernel's `fn` item, below its doc comment",
                m.kind.name()
            ),
        });
    }

    if !rel_path.ends_with(rules::R5_EXEMPT_FILE) {
        collect_rng_sites(&scan, &mut facts);
        check_closure_captures(&scan, &bodies, &mut facts);
    }
    check_parallel_folds(&scan, &bodies, &exact_folds, &mut facts);

    facts
}

/// The `fn` token a marker on `line` declares: the item must start on
/// the line directly below, with only attributes and qualifiers before
/// its `fn`, and be non-test code.
fn marked_fn(scan: &FileScan, line: u32) -> Option<usize> {
    let toks = &scan.tokens;
    let mut i = toks.partition_point(|t| t.line <= line);
    if toks.get(i)?.line != line + 1 {
        return None;
    }
    loop {
        match &toks.get(i)?.tok {
            Tok::Sym('#') => i = skip_attr(toks, i),
            Tok::Ident(s) if s == "fn" => break,
            Tok::Ident(s) if s == "pub" => i += 1,
            t if is_fn_qualifier(t) => i += 1,
            _ => return None,
        }
    }
    (!scan.is_test_code(i)).then_some(i)
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn sym_at(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.tok == Tok::Sym(c))
}

/// Is the token at `i` called: followed directly by `(`, or by a
/// turbofish `::<…>` and then `(`? Angle brackets nest (`::<Vec<u8>>`),
/// and the `>` of an `->` inside them closes none.
pub(crate) fn is_called(toks: &[Token], i: usize) -> bool {
    if sym_at(toks, i + 1, '(') {
        return true;
    }
    if !(sym_at(toks, i + 1, ':') && sym_at(toks, i + 2, ':') && sym_at(toks, i + 3, '<')) {
        return false;
    }
    let mut depth = 0usize;
    for j in i + 3..toks.len() {
        match toks[j].tok {
            Tok::Sym('<') => depth += 1,
            Tok::Sym('>') if !sym_at(toks, j - 1, '-') => {
                depth -= 1;
                if depth == 0 {
                    return sym_at(toks, j + 1, '(');
                }
            }
            // A body brace: not a generic argument list after all.
            Tok::Sym('{' | '}') => return false,
            _ => {}
        }
    }
    false
}

/// `impl` block spans: (start token, end token, self-type name). The
/// self type is the last path ident at angle-depth 0 before the body
/// brace (after `for` when present, before any `where` clause).
fn find_impl_spans(toks: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].tok != Tok::Ident("impl".into()) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut ty: Option<String> = None;
        let mut in_where = false;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Sym('<') => angle += 1,
                Tok::Sym('>') => angle -= 1,
                Tok::Sym('{') if angle <= 0 => break,
                Tok::Sym(';') => break, // `impl Trait for Type;` forms
                Tok::Ident(s) if angle == 0 => {
                    if s == "where" {
                        in_where = true;
                    } else if s == "for" {
                        ty = None; // the trait path was not the self type
                    } else if !in_where {
                        ty = Some(s.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].tok == Tok::Sym(';') {
            i = j + 1;
            continue;
        }
        // Brace-match the impl body.
        let open = j;
        let mut depth = 0i32;
        let mut end = toks.len();
        while j < toks.len() {
            match toks[j].tok {
                Tok::Sym('{') => depth += 1,
                Tok::Sym('}') => {
                    depth -= 1;
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(ty) = ty {
            out.push((open, end, ty));
        }
        i = open + 1; // impls do not nest, but fn-local impls exist
    }
    out
}

/// Body token span of the `fn` at token `i` (half-open, inside the
/// braces), or None for bodiless trait-method declarations. The `;` of
/// an array type in the signature (`-> [u8; 4]`) ends nothing.
fn body_span(toks: &[Token], i: usize) -> Option<(usize, usize)> {
    let mut j = i + 2;
    let mut nest = 0i32;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Sym('(' | '[') => nest += 1,
            Tok::Sym(')' | ']') => nest -= 1,
            Tok::Sym('{') if nest == 0 => break,
            Tok::Sym(';') if nest == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let open = j;
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Sym('{') => depth += 1,
            Tok::Sym('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some((open + 1, j));
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// A token that may sit between a visibility keyword and `fn`:
/// `const`, `unsafe`, `async`, `extern "C"`, and `pub(crate)` groups.
fn is_fn_qualifier(t: &Tok) -> bool {
    match t {
        Tok::Ident(s) => matches!(
            s.as_str(),
            "const" | "unsafe" | "async" | "extern" | "crate" | "super" | "self" | "in"
        ),
        Tok::Sym('(') | Tok::Sym(')') | Tok::Str(_) => true,
        _ => false,
    }
}

/// Is the `fn` at token `i` marked `pub` (any visibility form)? Walks
/// back over the qualifiers that may sit between.
fn detect_pub(toks: &[Token], i: usize) -> bool {
    let mut k = i;
    for _ in 0..8 {
        if k == 0 {
            return false;
        }
        k -= 1;
        match &toks[k].tok {
            Tok::Ident(s) if s == "pub" => return true,
            t if is_fn_qualifier(t) => {}
            _ => return false,
        }
    }
    false
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [a, b]`, `let [x, y] = ..`, `&mut [u8]`).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "return"
            | "in"
            | "break"
            | "else"
            | "match"
            | "if"
            | "while"
            | "loop"
            | "move"
            | "mut"
            | "ref"
            | "static"
            | "const"
            | "as"
            | "let"
            | "for"
    )
}

/// The `[` at `j` opens an index expression R7 counts as a panic site:
/// it follows a value (an identifier that is not a keyword, or a `)` or
/// `]`), the index is not a lone literal (`a[0]`), and no `bound:`
/// comment states why it stays in range: one trailing this line, or one
/// alone on the line above.
fn is_index_panic(scan: &FileScan, j: usize) -> bool {
    let toks = &scan.tokens;
    if !sym_at(toks, j, '[') || j == 0 {
        return false;
    }
    let after_value = match &toks[j - 1].tok {
        Tok::Ident(s) => !is_keyword(s),
        Tok::Sym(c) => matches!(c, ')' | ']'),
        _ => false,
    };
    let literal_index =
        matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Num)) && sym_at(toks, j + 2, ']');
    let line = toks[j].line;
    let noted = scan.bound_note_lines.contains(&line);
    after_value && !literal_index && !noted
}

fn collect_calls_and_panics(scan: &FileScan, open: usize, close: usize, def: &mut FnDef) {
    let toks = &scan.tokens;
    for j in open..close {
        // Panicking constructs.
        if is_index_panic(scan, j) {
            let base = ident_at(toks, j - 1).unwrap_or("..");
            def.panics.push(PanicSite {
                line: toks[j].line,
                what: format!("index `{base}[..]`"),
            });
        }
        if sym_at(toks, j, '.') && sym_at(toks, j + 2, '(') {
            if let Some(name @ ("unwrap" | "expect")) = ident_at(toks, j + 1) {
                def.panics.push(PanicSite {
                    line: toks[j + 1].line,
                    what: format!("{name}()"),
                });
            }
        }
        if sym_at(toks, j + 1, '!') {
            if let Some(name) = ident_at(toks, j) {
                if rules::PANIC_MACROS.contains(&name) {
                    def.panics.push(PanicSite {
                        line: toks[j].line,
                        what: format!("{name}!"),
                    });
                }
            }
        }

        // Call sites: Ident followed by `(`, directly or after a turbofish.
        let Some(name) = ident_at(toks, j) else {
            continue;
        };
        if !is_called(toks, j) || is_call_keyword(name) {
            continue;
        }
        let via = if j > 0 && sym_at(toks, j - 1, '.') {
            CallVia::Method
        } else if j >= 2 && sym_at(toks, j - 1, ':') && sym_at(toks, j - 2, ':') {
            match (j >= 3).then(|| ident_at(toks, j - 3)).flatten() {
                Some(q) => CallVia::Path(q.to_string()),
                // `<T as Trait>::call(` and friends: unresolvable from
                // tokens; the call graph drops these edges.
                None => CallVia::Path(String::new()),
            }
        } else if j > 0 && matches!(&toks[j - 1].tok, Tok::Ident(s) if s == "fn") {
            continue; // the definition itself
        } else {
            CallVia::Free
        };
        def.calls.push(CallSite {
            name: name.to_string(),
            via,
            line: toks[j].line,
        });
    }
}

/// R5 part 1: record literal-label derivation sites; flag non-literal
/// labels and raw `DetRng::stream` calls as local findings.
fn collect_rng_sites(scan: &FileScan, facts: &mut FileFacts) {
    let toks = &scan.tokens;
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some("DetRng") || scan.is_test_code(i) {
            continue;
        }
        if !(sym_at(toks, i + 1, ':') && sym_at(toks, i + 2, ':')) {
            continue;
        }
        let kind = match ident_at(toks, i + 3) {
            Some("stream") => RngKind::Stream,
            Some("substream") => RngKind::Substream,
            // `substreams(seed, label)` hoists the label of a family of
            // `substream_indexed(seed, label, id)` streams: same streams,
            // so same kind for the duplicate check.
            Some("substream_indexed") | Some("substreams") => RngKind::SubstreamIndexed,
            _ => continue,
        };
        if !sym_at(toks, i + 4, '(') {
            continue;
        }
        let line = toks[i + 3].line;
        if kind == RngKind::Stream {
            facts.local.push(LocalFinding {
                rule: "R5".into(),
                line,
                message: "raw DetRng::stream call site; derive task streams through \
                          substream/substream_indexed with a unique literal label so \
                          collisions are statically auditable"
                    .into(),
            });
            continue;
        }
        // The label is the second argument: skip the seed expression to
        // the first comma at depth 1, then require a string literal.
        match second_arg_literal(toks, i + 4) {
            Some(label) => facts.rng_sites.push(RngSite { kind, label, line }),
            None => facts.local.push(LocalFinding {
                rule: "R5".into(),
                line,
                message: format!(
                    "non-literal label passed to DetRng::{}; labels must be string \
                     literals so the seed-collision check can see them",
                    kind.ctor()
                ),
            }),
        }
    }
}

/// The second argument of the call whose `(` is at token `p`, when it is
/// a lone string literal.
fn second_arg_literal(toks: &[Token], p: usize) -> Option<String> {
    let mut depth = 1i32;
    let mut j = p + 1;
    while j < toks.len() && depth > 0 {
        match toks[j].tok {
            Tok::Sym('(') | Tok::Sym('[') => depth += 1,
            Tok::Sym(')') | Tok::Sym(']') => depth -= 1,
            Tok::Sym(',') if depth == 1 => {
                // Second argument starts at j + 1: accept `"lit"` (and a
                // leading `&`) followed by `,` or the closing `)`.
                let mut k = j + 1;
                if sym_at(toks, k, '&') {
                    k += 1;
                }
                if let Some(Tok::Str(s)) = toks.get(k).map(|t| &t.tok) {
                    let after_comma = sym_at(toks, k + 1, ',');
                    let after_close = sym_at(toks, k + 1, ')');
                    if after_comma || after_close {
                        return Some(s.clone());
                    }
                }
                return None;
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// R5 part 2: a `DetRng` bound outside a parallel entry's task closure
/// but referenced inside it is shared-stream aliasing — every task would
/// draw from one counter stream in nondeterministic interleaving.
fn check_closure_captures(
    scan: &FileScan,
    bodies: &[(usize, usize, usize)],
    facts: &mut FileFacts,
) {
    let toks = &scan.tokens;
    for &(_, open, close) in bodies {
        // `let [mut] name = DetRng::...` bindings in this body.
        let mut bound: Vec<(String, usize)> = Vec::new();
        for j in open..close {
            if ident_at(toks, j) != Some("let") {
                continue;
            }
            let mut k = j + 1;
            if ident_at(toks, k) == Some("mut") {
                k += 1;
            }
            let Some(name) = ident_at(toks, k) else {
                continue;
            };
            if sym_at(toks, k + 1, '=') && ident_at(toks, k + 2) == Some("DetRng") {
                bound.push((name.to_string(), k));
            }
        }
        if bound.is_empty() {
            continue;
        }
        for (entry, args_open, args_close) in parallel_entry_spans(toks, open, close) {
            let has_closure = (args_open..args_close).any(|j| sym_at(toks, j, '|'));
            if !has_closure {
                continue;
            }
            for (name, bind_idx) in &bound {
                if *bind_idx >= args_open {
                    continue; // bound inside the closure: per-task state, fine
                }
                if let Some(j) =
                    (args_open..args_close).find(|&j| ident_at(toks, j) == Some(name.as_str()))
                {
                    facts.local.push(LocalFinding {
                        rule: "R5".into(),
                        line: toks[j].line,
                        message: format!(
                            "DetRng `{name}` is captured by a closure passed to parallel \
                             entry `{entry}`; tasks would alias one stream — derive a \
                             per-task stream inside the closure (ctx.rng() / \
                             substream_indexed)"
                        ),
                    });
                }
            }
        }
    }
}

/// Parallel-entry call spans inside a body: (entry name, args open+1,
/// args close). The core's name always counts; generic `TrialPlan`
/// method names count only with `TrialPlan` evidence on the call chain
/// or an `exec` first argument.
fn parallel_entry_spans(
    toks: &[Token],
    open: usize,
    close: usize,
) -> Vec<(&'static str, usize, usize)> {
    let mut out = Vec::new();
    for j in open..close {
        let Some(name) = ident_at(toks, j) else {
            continue;
        };
        if !sym_at(toks, j + 1, '(') {
            continue;
        }
        let exec_entry = PARALLEL_EXEC_ENTRIES.iter().find(|e| **e == name);
        let plan_entry = PARALLEL_PLAN_ENTRIES.iter().find(|e| **e == name);
        let entry = match (exec_entry, plan_entry) {
            (Some(e), _) => *e,
            (None, Some(e)) if is_plan_call(toks, j) => *e,
            _ => continue,
        };
        if let Some(end) = match_paren(toks, j + 1) {
            out.push((entry, j + 2, end));
        }
    }
    out
}

/// Evidence that the method call at token `j` is on a `TrialPlan`:
/// `TrialPlan` appears earlier in the same statement (the builder chain)
/// with no intervening closure body, or the first argument is `exec`.
fn is_plan_call(toks: &[Token], j: usize) -> bool {
    // First argument `exec` / `&exec`.
    let mut k = j + 2;
    if sym_at(toks, k, '&') {
        k += 1;
    }
    if ident_at(toks, k) == Some("exec") {
        return true;
    }
    // Backtrack to the statement boundary looking for `TrialPlan`.
    let mut i = j;
    while i > 0 {
        i -= 1;
        match &toks[i].tok {
            Tok::Sym(';') | Tok::Sym('{') | Tok::Sym('}') => return false,
            Tok::Ident(s) if s == "TrialPlan" => return true,
            _ => {}
        }
    }
    false
}

/// Token index just past the `(` at `p`'s matching `)`.
fn match_paren(toks: &[Token], p: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in toks[p..].iter().enumerate() {
        match t.tok {
            Tok::Sym('(') => depth += 1,
            Tok::Sym(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(p + off);
                }
            }
            _ => {}
        }
    }
    None
}

/// R6: accumulation (`+=`, `-=`, `*=`, `.sum()`, `.product()`, or a
/// rollup `.merge()`) inside a parallel fold must sit in an `exact-fold`
/// function — the static promise that the accumulator is exact-integer,
/// cross-checked against the integer-rollup test its marker cites.
/// Floating-point accumulation in a parallel fold reassociates across
/// thread counts and silently breaks bit-identical results; a `merge`
/// call is the struct-shaped version of `+=` and gets the same
/// treatment, so rollup folds (hyperfleet, traffic) cannot gain a float
/// field without a cited commutativity proof. An `exact-fold` marker on
/// a function with no such accumulation is stale: it would grandfather
/// a future float fold.
fn check_parallel_folds(
    scan: &FileScan,
    bodies: &[(usize, usize, usize)],
    exact_folds: &[(usize, u32)],
    facts: &mut FileFacts,
) {
    let toks = &scan.tokens;
    let mut accumulating: Vec<usize> = Vec::new();
    for &(fn_idx, open, close) in bodies {
        let fn_name = ident_at(toks, fn_idx + 1).unwrap_or_default();
        for (entry, args_open, args_close) in parallel_entry_spans(toks, open, close) {
            if !matches!(entry, "fold" | "fold_checkpointed" | "fan_out") {
                continue;
            }
            let mut acc_lines: Vec<(u32, &'static str)> = Vec::new();
            for j in args_open..args_close {
                if sym_at(toks, j + 1, '=') {
                    if sym_at(toks, j, '+') {
                        acc_lines.push((toks[j].line, "`+=`"));
                    } else if sym_at(toks, j, '-') {
                        acc_lines.push((toks[j].line, "`-=`"));
                    } else if sym_at(toks, j, '*') && !sym_at(toks, j - 1, '*') {
                        acc_lines.push((toks[j].line, "`*=`"));
                    }
                } else if sym_at(toks, j, '.') {
                    if let Some(m @ ("sum" | "product" | "merge")) = ident_at(toks, j + 1) {
                        // `.sum()` / `.sum::<T>()`.
                        let mut k = j + 2;
                        if sym_at(toks, k, ':') && sym_at(toks, k + 1, ':') {
                            k += 2;
                            if sym_at(toks, k, '<') {
                                while k < args_close && !sym_at(toks, k, '>') {
                                    k += 1;
                                }
                                k += 1;
                            }
                        }
                        if sym_at(toks, k, '(') {
                            let what: &'static str = match m {
                                "sum" => "`.sum()`",
                                "product" => "`.product()`",
                                _ => "`.merge()`",
                            };
                            acc_lines.push((toks[j + 1].line, what));
                        }
                    }
                }
            }
            if acc_lines.is_empty() {
                continue;
            }
            accumulating.push(fn_idx);
            if exact_folds.iter().any(|&(i, _)| i == fn_idx) {
                continue;
            }
            for (line, what) in acc_lines {
                facts.local.push(LocalFinding {
                    rule: "R6".into(),
                    line,
                    message: format!(
                        "{what} inside parallel fold `{entry}` in fn `{fn_name}`; parallel \
                         reductions must be exact-integer and marked \
                         `// lint: exact-fold proof=<test>` with an integer-rollup proof"
                    ),
                });
            }
        }
    }
    for &(fn_idx, line) in exact_folds {
        if !accumulating.contains(&fn_idx) {
            facts.local.push(LocalFinding {
                rule: "R6".into(),
                line,
                message: format!(
                    "exactness-registry entry `{}` has no parallel-fold accumulation \
                     site; remove its stale exact-fold marker",
                    ident_at(toks, fn_idx + 1).unwrap_or_default()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> FileFacts {
        extract("crates/sim/src/x.rs", src)
    }

    fn panic_lines(src: &str) -> Vec<(u32, String)> {
        facts(src).fns[0]
            .panics
            .iter()
            .map(|p| (p.line, p.what.clone()))
            .collect()
    }

    #[test]
    fn unnoted_indexing_is_a_panic_site() {
        let src = "fn f(a: &[u8], i: usize) -> u8 {\n    let x = a[i];\n    \
                   // bound: i < a.len() checked by caller\n    let y = a[i];\n    \
                   let z = a[0];\n    x + y + z\n}";
        assert_eq!(panic_lines(src), vec![(2, "index `a[..]`".to_string())]);
    }

    #[test]
    fn attributes_and_array_types_are_not_panic_sites() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\nfn f() -> [u8; 2] { [0, 0] }\n\
                   fn g() { #[allow(unused)] let [x, y] = [0u8; 2]; for b in [x, y] { h(&mut [b]); } }";
        let f = facts(src);
        // `f` is recorded although its array return type holds a `;`.
        assert_eq!(f.fns.len(), 2);
        assert!(f.fns.iter().all(|d| d.panics.is_empty()), "{:?}", f.fns);
    }

    #[test]
    fn indexing_a_call_result_or_an_index_is_a_panic_site() {
        let src = "fn f(m: &[Vec<u8>], i: usize) -> u8 { g(m)[i] + m[0][i] }";
        let what: Vec<_> = panic_lines(src).into_iter().map(|(_, w)| w).collect();
        assert_eq!(what, vec!["index `..[..]`", "index `..[..]`"]);
    }

    #[test]
    fn fn_defs_carry_impl_context_and_visibility() {
        let src = "impl Plan { pub fn try_go(&self) {} fn helper() {} }\n\
                   pub(crate) fn free() {}\nfn private() {}";
        let f = facts(src);
        let names: Vec<(String, Option<String>, bool)> = f
            .fns
            .iter()
            .map(|d| (d.name.clone(), d.impl_type.clone(), d.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                ("try_go".into(), Some("Plan".into()), true),
                ("helper".into(), Some("Plan".into()), false),
                ("free".into(), None, true),
                ("private".into(), None, false),
            ]
        );
    }

    #[test]
    fn trait_impl_resolves_self_type_after_for() {
        let f = facts("impl fmt::Display for Power { fn fmt(&self) { x.unwrap(); } }");
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Power"));
        assert_eq!(f.fns[0].panics.len(), 1);
    }

    #[test]
    fn calls_classify_method_path_free() {
        let f = facts(
            "fn go() { x.step(); Plan::make(); Self::own(); helper(); mod_a::mod_b::deep(); }",
        );
        let calls = &f.fns[0].calls;
        assert!(calls.contains(&CallSite {
            name: "step".into(),
            via: CallVia::Method,
            line: 1
        }));
        assert!(calls.contains(&CallSite {
            name: "make".into(),
            via: CallVia::Path("Plan".into()),
            line: 1
        }));
        assert!(calls.contains(&CallSite {
            name: "own".into(),
            via: CallVia::Path("Self".into()),
            line: 1
        }));
        assert!(calls.contains(&CallSite {
            name: "helper".into(),
            via: CallVia::Free,
            line: 1
        }));
        assert!(calls.contains(&CallSite {
            name: "deep".into(),
            via: CallVia::Path("mod_b".into()),
            line: 1
        }));
    }

    #[test]
    fn calls_through_a_turbofish_are_call_sites() {
        let f = facts(
            "fn go() { s.first_draws::<16>(0); Rng::first_u64s::<Vec<u8>>(&k); \
             collect::<Vec<_>>(); let f = x.len::<u8>; }",
        );
        let calls = &f.fns[0].calls;
        assert!(calls.contains(&CallSite {
            name: "first_draws".into(),
            via: CallVia::Method,
            line: 1
        }));
        assert!(calls.contains(&CallSite {
            name: "first_u64s".into(),
            via: CallVia::Path("Rng".into()),
            line: 1
        }));
        assert!(calls.contains(&CallSite {
            name: "collect".into(),
            via: CallVia::Free,
            line: 1
        }));
        assert!(!calls.iter().any(|c| c.name == "len"));
    }

    #[test]
    fn rng_literal_labels_are_sites_nonliteral_is_finding() {
        let f = facts(
            "fn a(seed: u64) {\n let r = DetRng::substream(seed, \"alpha\");\n \
             let s = DetRng::substream_indexed(seed, &label, 3);\n}",
        );
        assert_eq!(
            f.rng_sites,
            vec![RngSite {
                kind: RngKind::Substream,
                label: "alpha".into(),
                line: 2
            }]
        );
        assert_eq!(f.local.len(), 1);
        assert!(f.local[0].message.contains("non-literal label"));
    }

    #[test]
    fn raw_stream_call_is_flagged() {
        let f = facts("fn a(seed: u64, i: u64) { let r = DetRng::stream(seed, i); }");
        assert!(f
            .local
            .iter()
            .any(|l| l.rule == "R5" && l.message.contains("raw DetRng::stream")));
    }

    #[test]
    fn captured_rng_in_parallel_closure_is_flagged() {
        let src = "fn bad(exec: &Exec, seed: u64) {\n\
                   let mut rng = DetRng::substream(seed, \"shared\");\n\
                   TrialPlan::new().trials(8).run(exec, |ctx| rng.next_u64() + ctx.trial());\n}";
        let f = facts(src);
        assert!(f
            .local
            .iter()
            .any(|l| l.rule == "R5" && l.message.contains("captured by a closure")));
    }

    #[test]
    fn substreams_family_is_an_indexed_site() {
        let f = facts("fn a(seed: u64) {\n let links = DetRng::substreams(seed, \"links\");\n}");
        assert_eq!(
            f.rng_sites,
            vec![RngSite {
                kind: RngKind::SubstreamIndexed,
                label: "links".into(),
                line: 2
            }]
        );
    }

    #[test]
    fn rng_bound_inside_closure_is_fine() {
        let src = "fn good(exec: &Exec, seed: u64) {\n\
                   TrialPlan::new().trials(8).run(exec, |ctx| { let mut rng = DetRng::substream_indexed(seed, \"t\", ctx.trial()); rng.next_u64() });\n}";
        let f = facts(src);
        assert!(f.local.iter().all(|l| !l.message.contains("captured")));
    }

    #[test]
    fn float_accumulation_in_fold_is_flagged_and_iterator_fold_is_not() {
        let src = "fn bad(exec: &Exec) -> f64 {\n\
                   let t = TrialPlan::new().trials(8).seed(1).label(\"x\")\n\
                   .fold(exec, || (), || 0.0f64, |ctx, _s, acc| { *acc += ctx.value(); }, |a, b| { *a += b; });\n\
                   t\n}\n\
                   fn fine(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a.max(*b)) }";
        let f = facts(src);
        let r6: Vec<_> = f.local.iter().filter(|l| l.rule == "R6").collect();
        assert_eq!(r6.len(), 2, "{:?}", f.local);
        assert!(r6.iter().all(|l| l.message.contains("in fn `bad`")));
    }

    #[test]
    fn merge_in_fold_is_accumulation_and_registration_clears_it() {
        let src = "fn point(exec: &Exec) -> Rollup {\n\
                   TrialPlan::new().trials(8).seed(1).label(\"x\")\n\
                   .fold(exec, || (), Rollup::default, |c, _s, acc| { acc.merge(&one(c.trial())); },\n\
                   |total, other| total.merge(&other))\n}";
        let f = facts(src);
        let r6: Vec<_> = f.local.iter().filter(|l| l.rule == "R6").collect();
        assert_eq!(r6.len(), 2, "{:?}", f.local);
        assert!(r6.iter().all(|l| l.message.contains("`.merge()`")));

        let marked = format!("// lint: exact-fold proof=tests/rollup.rs\n{src}");
        let f = facts(&marked);
        assert!(f.local.iter().all(|l| l.rule != "R6"), "{:?}", f.local);
        assert_eq!(
            f.kernels,
            vec![Kernel {
                func: "point".into(),
                marker: Marker {
                    line: 1,
                    kind: MarkerKind::Exact,
                    proof: Some("tests/rollup.rs".into()),
                },
            }]
        );
    }

    #[test]
    fn marked_fold_is_clean_and_a_marker_without_a_fold_is_stale() {
        let src = "impl Plan {\n// lint: exact-fold proof=tests/rollup.rs\npub fn sum(&self, exec: &Exec) -> u64 {\n\
                   self.fold(exec, || (), || 0u64, |c, _s, acc| { *acc += c.v(); }, |t, p| { *t += p; })\n}\n\
                   // lint: exact-fold proof=tests/rollup.rs\nfn serial(v: &[u64]) -> u64 { v.iter().sum() }\n}";
        let f = facts(src);
        let r6: Vec<_> = f.local.iter().filter(|l| l.rule == "R6").collect();
        assert_eq!(r6.len(), 1, "{:?}", f.local);
        assert_eq!(r6[0].line, 6);
        assert!(r6[0]
            .message
            .contains("`serial` has no parallel-fold accumulation"));
    }

    #[test]
    fn markers_attach_through_attributes_and_qualifiers_only() {
        let src = "/// Doc.\n// lint: no-alloc\n#[inline]\npub(crate) const fn a() {}\n\
                   // lint: no-alloc\n/// Doc below the marker.\nfn b() {}\n\
                   #[cfg(test)]\nmod t {\n    // lint: no-alloc\n    fn c() {}\n}\n\
                   // lint: exact-fold proof=p.rs\nstruct S;\n";
        let f = facts(src);
        let kernels: Vec<_> = f.kernels.iter().map(|k| k.func.as_str()).collect();
        assert_eq!(kernels, vec!["a"]);
        let unattached: Vec<_> = f.local.iter().map(|l| (l.rule.as_str(), l.line)).collect();
        assert_eq!(unattached, vec![("R4", 5), ("R4", 10), ("R6", 13)]);
    }
}
