//! The workspace call graph and the global (interprocedural) passes.
//!
//! Built from the per-file [`FileFacts`] alone: no source is re-read
//! once the facts are extracted.
//!
//! Resolution is name-shaped and deliberately conservative in both
//! directions, with the bias chosen per rule:
//!
//! * `Qual::name(...)` path calls bind to functions named `name` inside
//!   `impl Qual` blocks (`self`/`Self` bind within the caller's impl
//!   type); if no impl matches, they fall back to free functions of that
//!   name (module-path calls like `framing::crc32`).
//! * Bare `name(...)` free calls bind to free functions named `name`.
//! * `recv.name(...)` method calls bind to *every* function named
//!   `name` — an over-approximation that keeps R7 sound — except names
//!   on the std-collision skip list (`sum`, `fold`, `len`, ...), where
//!   the overwhelmingly common binding is a std trait method and linking
//!   every workspace homonym would drown the rule in false paths.
//!
//! R7 then walks reachability from every `pub`-visible `try_*` function:
//! a panic site inside the reachable set is a violation *wherever it
//! lives* — the property is structural, not a file-list convention.

use crate::rules::{Config, METHOD_CALL_SKIP};
use crate::symbols::{CallVia, FileFacts, LocalFinding, RngKind};
use std::collections::BTreeMap;

/// Summary counters for the report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    pub functions: u64,
    pub call_edges: u64,
    pub entry_points: u64,
    pub reachable_fns: u64,
}

/// A node is (file index, fn index) into the facts slice.
type Node = (usize, usize);

pub struct CallGraph<'f> {
    facts: &'f [FileFacts],
    /// Every non-test fn by bare name.
    by_name: BTreeMap<&'f str, Vec<Node>>,
    /// Fns by (impl type, name).
    by_impl: BTreeMap<(&'f str, &'f str), Vec<Node>>,
    /// Free fns (no impl type) by name.
    free: BTreeMap<&'f str, Vec<Node>>,
}

impl<'f> CallGraph<'f> {
    pub fn build(facts: &'f [FileFacts]) -> CallGraph<'f> {
        let mut g = CallGraph {
            facts,
            by_name: BTreeMap::new(),
            by_impl: BTreeMap::new(),
            free: BTreeMap::new(),
        };
        for (fi, file) in facts.iter().enumerate() {
            for (ki, def) in file.fns.iter().enumerate() {
                let node = (fi, ki);
                g.by_name.entry(&def.name).or_default().push(node);
                match &def.impl_type {
                    Some(ty) => g
                        .by_impl
                        .entry((ty.as_str(), def.name.as_str()))
                        .or_default()
                        .push(node),
                    None => g.free.entry(&def.name).or_default().push(node),
                }
            }
        }
        g
    }

    /// Callees of `node` under the resolution policy.
    fn callees(&self, node: Node) -> Vec<Node> {
        let def = &self.facts[node.0].fns[node.1];
        let mut out: Vec<Node> = Vec::new();
        for call in &def.calls {
            let name = call.name.as_str();
            match &call.via {
                CallVia::Method => {
                    if METHOD_CALL_SKIP.contains(&name) {
                        continue;
                    }
                    if let Some(v) = self.by_name.get(name) {
                        out.extend(v.iter().copied());
                    }
                }
                CallVia::Free => {
                    if let Some(v) = self.free.get(name) {
                        out.extend(v.iter().copied());
                    }
                }
                CallVia::Path(q) => {
                    let q = match q.as_str() {
                        "" => continue, // `<T as Trait>::f(` — unresolvable
                        "self" | "Self" => match &def.impl_type {
                            Some(ty) => ty.as_str(),
                            None => continue,
                        },
                        other => other,
                    };
                    if let Some(v) = self.by_impl.get(&(q, name)) {
                        out.extend(v.iter().copied());
                    } else if let Some(v) = self.free.get(name) {
                        // Module-path free call (`framing::crc32`).
                        out.extend(v.iter().copied());
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total resolved edge count (for the report summary).
    fn edge_count(&self) -> u64 {
        let mut n = 0u64;
        for (fi, file) in self.facts.iter().enumerate() {
            for ki in 0..file.fns.len() {
                n += self.callees((fi, ki)).len() as u64;
            }
        }
        n
    }

    /// R7: deny panic sites reachable from `pub try_*` entry points.
    /// Entries are discovered in every crate; the denial follows
    /// reachability wherever it leads. Each reachable fn is
    /// attributed to the lexicographically first entry that reaches it,
    /// so messages (and therefore fingerprints) are stable under
    /// unrelated graph growth.
    pub fn check_reachable_panics(
        &self,
        extra: &mut BTreeMap<String, Vec<LocalFinding>>,
    ) -> GraphStats {
        let mut entries: Vec<(String, Node)> = Vec::new();
        for (fi, file) in self.facts.iter().enumerate() {
            for (ki, def) in file.fns.iter().enumerate() {
                if def.is_pub && def.name.starts_with("try_") {
                    entries.push((def.name.clone(), (fi, ki)));
                }
            }
        }
        entries.sort();

        // BFS from each entry in sorted order; first reacher wins.
        let mut reached: BTreeMap<Node, &str> = BTreeMap::new();
        for (entry_name, start) in &entries {
            if reached.contains_key(start) {
                continue;
            }
            let mut queue: Vec<Node> = vec![*start];
            reached.insert(*start, entry_name);
            while let Some(node) = queue.pop() {
                for next in self.callees(node) {
                    if let std::collections::btree_map::Entry::Vacant(e) = reached.entry(next) {
                        e.insert(entry_name);
                        queue.push(next);
                    }
                }
            }
        }

        for (&(fi, ki), entry) in &reached {
            let file = &self.facts[fi];
            let def = &file.fns[ki];
            for p in &def.panics {
                extra
                    .entry(file.rel_path.clone())
                    .or_default()
                    .push(LocalFinding {
                        rule: "R7".into(),
                        line: p.line,
                        message: format!(
                            "{} in `{}` is reachable from fallible entry `{entry}`; paths \
                         behind try_* APIs must return the error, not panic",
                            p.what, def.name
                        ),
                    });
            }
        }

        GraphStats {
            functions: self.facts.iter().map(|f| f.fns.len() as u64).sum(),
            call_edges: self.edge_count(),
            entry_points: entries.len() as u64,
            reachable_fns: reached.len() as u64,
        }
    }
}

/// R5 global pass: two distinct call sites deriving a stream from the
/// same (constructor, label) pair collide — they would replay identical
/// ChaCha counter streams, silently correlating supposedly independent
/// trials. (`substream` vs `substream_indexed` with the same label do
/// *not* collide: the indexed form remixes the label hash per task.)
pub fn check_duplicate_labels(
    facts: &[FileFacts],
    extra: &mut BTreeMap<String, Vec<LocalFinding>>,
) {
    let mut sites: BTreeMap<(RngKind, &str), Vec<(&str, u32)>> = BTreeMap::new();
    for file in facts {
        for s in &file.rng_sites {
            sites
                .entry((s.kind, s.label.as_str()))
                .or_default()
                .push((file.rel_path.as_str(), s.line));
        }
    }
    for ((kind, label), mut where_) in sites {
        if where_.len() < 2 {
            continue;
        }
        where_.sort_unstable();
        for &(file, line) in &where_ {
            let other = where_
                .iter()
                .find(|&&(f, l)| (f, l) != (file, line))
                .expect("at least two sites");
            extra
                .entry(file.to_string())
                .or_default()
                .push(LocalFinding {
                    rule: "R5".into(),
                    line,
                    message: format!(
                        "duplicate DetRng::{} label \"{label}\" (also derived at {}:{}); \
                     colliding labels replay the same counter stream and correlate \
                     trials — make the label unique",
                        kind.ctor(),
                        other.0,
                        other.1
                    ),
                });
        }
    }
}

/// R6 global pass: exactness-registry hygiene. Every entry must (a) name
/// a function that actually accumulates inside a parallel fold — a stale
/// entry would silently grandfather future float folds — and (b) cite an
/// integer-rollup proof file that exists and mentions the function.
pub fn check_exactness_registry(
    root: Option<&std::path::Path>,
    cfg: &Config,
    facts: &[FileFacts],
    extra: &mut BTreeMap<String, Vec<LocalFinding>>,
) {
    for e in &cfg.exactness {
        let site = facts
            .iter()
            .find(|f| f.rel_path.ends_with(e.file))
            .filter(|f| f.fold_acc_fns.iter().any(|n| n == e.func));
        if site.is_none() {
            extra
                .entry(e.file.to_string())
                .or_default()
                .push(LocalFinding {
                    rule: "R6".into(),
                    line: 1,
                    message: format!(
                        "exactness-registry entry `{}` has no parallel-fold accumulation \
                         site in this file; remove the stale entry from \
                         crates/lint/src/rules.rs",
                        e.func
                    ),
                });
        }
        let Some(root) = root else { continue };
        let proof_ok = std::fs::read_to_string(root.join(e.proof))
            .map(|src| src.contains(e.func))
            .unwrap_or(false);
        if !proof_ok {
            extra
                .entry(e.file.to_string())
                .or_default()
                .push(LocalFinding {
                    rule: "R6".into(),
                    line: 1,
                    message: format!(
                        "exactness-registry proof `{}` is missing or never mentions \
                         `{}`; the integer-rollup test must pin the registered fold",
                        e.proof, e.func
                    ),
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols;

    fn file(name: &str, src: &str) -> FileFacts {
        symbols::extract(&Config::default(), name, src)
    }

    #[test]
    fn panic_reachable_from_try_entry_is_found_across_files() {
        let a = file(
            "crates/sim/src/a.rs",
            "pub fn try_top(x: u8) -> Result<u8, ()> { Ok(helper::mid(x)) }",
        );
        let b = file(
            "crates/sim/src/b.rs",
            "pub fn mid(x: u8) -> u8 { deep(x) }\nfn deep(x: u8) -> u8 { x.checked_add(1).unwrap() }",
        );
        let facts = vec![a, b];
        let g = CallGraph::build(&facts);
        let mut extra = BTreeMap::new();
        let stats = g.check_reachable_panics(&mut extra);
        assert_eq!(stats.entry_points, 1);
        let hits = &extra["crates/sim/src/b.rs"];
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("try_top"), "{}", hits[0].message);
        assert_eq!(hits[0].rule, "R7");
    }

    #[test]
    fn panicking_wrapper_not_reachable_from_try_is_legal() {
        let a = file(
            "crates/sim/src/a.rs",
            "pub fn try_new(x: u8) -> Result<u8, ()> { Ok(x) }\n\
             pub fn new(x: u8) -> u8 { try_new(x).unwrap() }",
        );
        let facts = vec![a];
        let g = CallGraph::build(&facts);
        let mut extra = BTreeMap::new();
        g.check_reachable_panics(&mut extra);
        assert!(extra.is_empty(), "{extra:?}");
    }

    #[test]
    fn self_calls_resolve_within_impl_type() {
        let a = file(
            "crates/sim/src/a.rs",
            "struct P; impl P {\n\
             pub fn try_run(&self) -> Result<(), ()> { Self::inner(); Ok(()) }\n\
             fn inner() { panic!(\"boom\") }\n}\n\
             struct Q; impl Q { fn inner() { x.unwrap() } }",
        );
        let facts = vec![a];
        let g = CallGraph::build(&facts);
        let mut extra = BTreeMap::new();
        g.check_reachable_panics(&mut extra);
        let hits = &extra["crates/sim/src/a.rs"];
        // Only P::inner is reachable; Q::inner shares the name but not
        // the impl type.
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("panic!"));
    }

    #[test]
    fn method_skip_list_prunes_std_collisions() {
        let a = file(
            "crates/sim/src/a.rs",
            "pub fn try_total(v: &[u64]) -> Result<u64, ()> { Ok(v.iter().sum()) }\n\
             struct T; impl T { fn sum(&self) -> u64 { x.unwrap() } }",
        );
        let facts = vec![a];
        let g = CallGraph::build(&facts);
        let mut extra = BTreeMap::new();
        g.check_reachable_panics(&mut extra);
        assert!(extra.is_empty(), "{extra:?}");
    }

    #[test]
    fn duplicate_labels_same_kind_collide_across_files() {
        let a = file(
            "crates/sim/src/a.rs",
            "fn a(s: u64) { DetRng::substream(s, \"x\"); }",
        );
        let b = file(
            "crates/netsim/src/b.rs",
            "fn b(s: u64) { DetRng::substream(s, \"x\"); }",
        );
        // Same label under the *indexed* constructor: different keying,
        // no collision.
        let d = file(
            "crates/sim/src/d.rs",
            "fn d(s: u64, i: u64) { DetRng::substream_indexed(s, \"x\", i); }",
        );
        let facts = vec![a, b, d];
        let mut extra = BTreeMap::new();
        check_duplicate_labels(&facts, &mut extra);
        assert_eq!(extra.len(), 2);
        assert!(extra["crates/sim/src/a.rs"][0]
            .message
            .contains("crates/netsim/src/b.rs:1"));
        assert!(!extra.contains_key("crates/sim/src/d.rs"));
    }
}
