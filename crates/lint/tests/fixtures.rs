//! Fixture tests for every lint pass: a seeded violation, a clean
//! variant, a test-exempt variant, and an allowlisted variant per pass,
//! asserting exact findings.

use kath_lint::baseline::Baseline;
use kath_lint::config::Config;
use kath_lint::{passes, run_on, Finding, SourceFile};

/// Runs the passes over (path, source) fixtures with a config and no
/// baseline ratchet.
fn lint(files: &[(&str, &str)], config: &str) -> Vec<Finding> {
    let config = Config::parse(config).expect("fixture config parses");
    let files: Vec<SourceFile> = files
        .iter()
        .map(|(path, text)| SourceFile::new(path, text))
        .collect();
    run_on(&files, &config, None).findings
}

fn pass_lines(findings: &[Finding], pass: &str) -> Vec<(String, u32)> {
    findings
        .iter()
        .filter(|f| f.pass == pass)
        .map(|f| (f.file.clone(), f.line))
        .collect()
}

// ───────────────────────────── io-seam ─────────────────────────────────

#[test]
fn io_seam_violation_is_detected() {
    let src = "use std::fs;\n\
               pub fn load(p: &std::path::Path) -> String {\n\
               \x20   let f = std::fs::File::open(p);\n\
               \x20   fs::read_to_string(p).unwrap()\n\
               }\n";
    let findings = lint(&[("crates/x/src/a.rs", src)], "");
    let lines = pass_lines(&findings, passes::name::IO_SEAM);
    // Line 1 `use std::fs`, line 3 `std::fs`, line 4 `fs::`.
    assert_eq!(
        lines,
        vec![
            ("crates/x/src/a.rs".to_string(), 1),
            ("crates/x/src/a.rs".to_string(), 3),
            ("crates/x/src/a.rs".to_string(), 4),
        ]
    );
}

#[test]
fn io_seam_clean_and_seam_file_are_silent() {
    // Mentions in comments/strings don't count; io.rs itself is the seam.
    let clean = "// std::fs is banned\npub fn f() -> &'static str { \"std::fs\" }\n";
    let seam = "pub fn open() { let _ = std::fs::File::open(\"x\"); }\n";
    let findings = lint(
        &[
            ("crates/x/src/clean.rs", clean),
            ("crates/storage/src/io.rs", seam),
        ],
        "",
    );
    assert_eq!(pass_lines(&findings, passes::name::IO_SEAM), vec![]);
}

#[test]
fn io_seam_test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::fs::read(\"x\"); }\n}\n";
    let findings = lint(&[("crates/x/src/a.rs", src)], "");
    assert_eq!(pass_lines(&findings, passes::name::IO_SEAM), vec![]);
}

#[test]
fn io_seam_allowlisted_file_is_silent_and_entry_is_used() {
    let src = "pub fn f() { let _ = std::fs::read(\"x\"); }\n";
    let config = "[[allow]]\npass = \"io-seam\"\npath = \"crates/x/src/a.rs\"\n\
                  reason = \"cold-path config load\"\n";
    let findings = lint(&[("crates/x/src/a.rs", src)], config);
    assert_eq!(
        findings,
        vec![],
        "allow suppresses the finding and is not stale"
    );
}

// ─────────────────────────── panic-ratchet ─────────────────────────────

fn ratchet(files: &[(&str, &str)], baseline: &str) -> Vec<Finding> {
    let config = Config::parse("").expect("empty config");
    let baseline = Baseline::parse(baseline).expect("fixture baseline");
    let files: Vec<SourceFile> = files
        .iter()
        .map(|(path, text)| SourceFile::new(path, text))
        .collect();
    run_on(&files, &config, Some(&baseline)).findings
}

const PANICKY: &str = "pub fn f(x: Option<u32>) -> u32 {\n\
                       \x20   if x.is_none() { panic!(\"no\"); }\n\
                       \x20   x.unwrap()\n}\n";

#[test]
fn panic_ratchet_flags_sites_over_baseline() {
    let findings = ratchet(
        &[("crates/storage/src/a.rs", PANICKY)],
        "{\"version\": 1, \"files\": {}}",
    );
    let lines = pass_lines(&findings, passes::name::PANIC);
    assert_eq!(lines, vec![("crates/storage/src/a.rs".to_string(), 0)]);
    assert!(findings[0]
        .message
        .contains("2 panic site(s), baseline allows 0"));
}

#[test]
fn panic_ratchet_at_baseline_is_clean_and_undershoot_is_stale() {
    // Exactly at budget: clean.
    let findings = ratchet(
        &[("crates/storage/src/a.rs", PANICKY)],
        "{\"version\": 1, \"files\": {\"crates/storage/src/a.rs\": 2}}",
    );
    assert_eq!(findings, vec![]);
    // Under budget: the baseline must shrink.
    let findings = ratchet(
        &[("crates/storage/src/a.rs", "pub fn f() {}\n")],
        "{\"version\": 1, \"files\": {\"crates/storage/src/a.rs\": 2}}",
    );
    assert_eq!(findings.len(), 1);
    assert!(
        findings[0].message.contains("stale baseline"),
        "{}",
        findings[0]
    );
}

#[test]
fn panic_ratchet_ignores_tests_and_unratcheted_crates() {
    let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { None::<u32>.unwrap(); }\n}\n";
    let findings = ratchet(
        &[
            ("crates/storage/src/a.rs", test_src),
            // The explain crate is not ratcheted.
            ("crates/explain/src/b.rs", PANICKY),
        ],
        "{\"version\": 1, \"files\": {}}",
    );
    assert_eq!(findings, vec![]);
}

// ─────────────────────────── lock-order ────────────────────────────────

const LOCK_CONFIG: &str = "\
[[lock]]\nname = \"a\"\nfile = \"crates/x/src/l.rs\"\nfield = \"alpha\"\nmethods = [\"lock\"]\n\
[[lock]]\nname = \"b\"\nfile = \"crates/x/src/l.rs\"\nfield = \"beta\"\nmethods = [\"lock\"]\n\
[lock-order]\norder = [\"a\", \"b\"]\n";

#[test]
fn lock_order_violation_is_detected() {
    // Acquires `b` then `a`: against the declared order a → b.
    let src = "impl S {\n\
               \x20   pub fn bad(&self) {\n\
               \x20       let g = self.beta.lock();\n\
               \x20       let h = self.alpha.lock();\n\
               \x20       drop(h);\n\
               \x20       drop(g);\n\
               \x20   }\n\
               }\n";
    let findings = lint(&[("crates/x/src/l.rs", src)], LOCK_CONFIG);
    let lines = pass_lines(&findings, "lock-order");
    assert_eq!(lines, vec![("crates/x/src/l.rs".to_string(), 4)]);
    assert!(
        findings[0].message.contains("`a` acquired"),
        "{}",
        findings[0]
    );
}

#[test]
fn lock_order_in_order_nesting_is_clean() {
    let src = "impl S {\n\
               \x20   pub fn good(&self) {\n\
               \x20       let g = self.alpha.lock();\n\
               \x20       let h = self.beta.lock();\n\
               \x20       drop(h);\n\
               \x20       drop(g);\n\
               \x20   }\n\
               }\n";
    let findings = lint(&[("crates/x/src/l.rs", src)], LOCK_CONFIG);
    assert_eq!(pass_lines(&findings, "lock-order"), vec![]);
}

#[test]
fn lock_order_release_is_modeled() {
    // `a` is dropped before `b` is taken — no edge, no finding; sequential
    // statement-temporaries don't nest either.
    let src = "impl S {\n\
               \x20   pub fn seq(&self) {\n\
               \x20       let g = self.beta.lock();\n\
               \x20       drop(g);\n\
               \x20       let h = self.alpha.lock();\n\
               \x20       drop(h);\n\
               \x20       *self.beta.lock() = 1;\n\
               \x20       *self.alpha.lock() = 2;\n\
               \x20   }\n\
               }\n";
    let findings = lint(&[("crates/x/src/l.rs", src)], LOCK_CONFIG);
    assert_eq!(pass_lines(&findings, "lock-order"), vec![]);
}

#[test]
fn lock_order_guard_returning_helper_transfers_to_caller() {
    // `self.lock()` returns a guard on `b`; the caller then takes `a`
    // while holding it — the interprocedural during-set catches it.
    let src = "impl S {\n\
               \x20   fn lock(&self) -> MutexGuard<'_, T> {\n\
               \x20       self.beta.lock()\n\
               \x20   }\n\
               \x20   pub fn bad(&self) {\n\
               \x20       let st = self.lock();\n\
               \x20       let g = self.alpha.lock();\n\
               \x20       drop(g);\n\
               \x20       drop(st);\n\
               \x20   }\n\
               }\n";
    let findings = lint(&[("crates/x/src/l.rs", src)], LOCK_CONFIG);
    let lines = pass_lines(&findings, "lock-order");
    assert_eq!(lines, vec![("crates/x/src/l.rs".to_string(), 7)]);
}

#[test]
fn lock_order_method_calls_resolve_only_to_methods() {
    // Under `b`, `items.iter().collect()` is an iterator method, never the
    // free `fn collect` that takes `a`: no edge from it. `self.helper()`
    // taking `a` under `b` is one, witnessed on its own line.
    let src = "pub fn collect(s: &S) -> u8 {\n\
               \x20   let g = s.alpha.lock();\n\
               \x20   *g\n\
               }\n\
               impl S {\n\
               \x20   pub fn quiet(&self, items: &[u8]) -> Vec<u8> {\n\
               \x20       let g = self.beta.lock();\n\
               \x20       let out = items.iter().copied().collect();\n\
               \x20       drop(g);\n\
               \x20       out\n\
               \x20   }\n\
               \x20   fn helper(&self) {\n\
               \x20       let g = self.alpha.lock();\n\
               \x20       drop(g);\n\
               \x20   }\n\
               \x20   pub fn loud(&self) {\n\
               \x20       let g = self.beta.lock();\n\
               \x20       self.helper();\n\
               \x20       drop(g);\n\
               \x20   }\n\
               }\n";
    let findings = lint(&[("crates/x/src/l.rs", src)], LOCK_CONFIG);
    let lines = pass_lines(&findings, "lock-order");
    assert_eq!(lines, vec![("crates/x/src/l.rs".to_string(), 18)]);
}

#[test]
fn lock_order_bare_drop_is_a_release_not_a_call() {
    // The only `fn drop` in scope (an `impl Drop`) takes `a`. A helper
    // that releases a guard with `drop(st)` calls nothing, so calling it
    // under `b` adds no `b → a` edge.
    let src = "impl Drop for P {\n\
               \x20   fn drop(&mut self) {\n\
               \x20       let g = self.alpha.lock();\n\
               \x20       drop(g);\n\
               \x20   }\n\
               }\n\
               impl S {\n\
               \x20   fn release(&self, st: Token) {\n\
               \x20       drop(st);\n\
               \x20   }\n\
               \x20   pub fn outer(&self, st: Token) {\n\
               \x20       let g = self.beta.lock();\n\
               \x20       self.release(st);\n\
               \x20       drop(g);\n\
               \x20   }\n\
               }\n";
    let findings = lint(&[("crates/x/src/l.rs", src)], LOCK_CONFIG);
    assert_eq!(pass_lines(&findings, "lock-order"), vec![]);
}

#[test]
fn lock_order_self_deadlock_is_detected() {
    let src = "impl S {\n\
               \x20   pub fn twice(&self) {\n\
               \x20       let g = self.alpha.lock();\n\
               \x20       let h = self.alpha.lock();\n\
               \x20       drop(h);\n\
               \x20       drop(g);\n\
               \x20   }\n\
               }\n";
    let findings = lint(&[("crates/x/src/l.rs", src)], LOCK_CONFIG);
    assert_eq!(findings.len(), 1);
    assert!(
        findings[0].message.contains("re-acquired"),
        "{}",
        findings[0]
    );
}

#[test]
fn lock_order_test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n\
               \x20   fn t(s: &S) {\n\
               \x20       let g = s.beta.lock();\n\
               \x20       let h = s.alpha.lock();\n\
               \x20       drop(h); drop(g);\n\
               \x20   }\n}\n";
    let findings = lint(&[("crates/x/src/l.rs", src)], LOCK_CONFIG);
    assert_eq!(pass_lines(&findings, "lock-order"), vec![]);
}

#[test]
fn lock_order_undeclared_lock_field_is_flagged() {
    // `gamma` and `delta` are locks the model was never told about; a
    // `let` of lock type, a parameter, and a plain field are not fields of
    // lock type.
    let src = "pub struct S {\n\
               \x20   alpha: Mutex<u8>,\n\
               \x20   pub(crate) gamma: parking_lot::RwLock<Vec<u8>>,\n\
               \x20   plain: Arc<Vec<u8>>,\n\
               \x20   #[allow(dead_code)]\n\
               \x20   delta: Mutex<Box<dyn Fn(&u8) -> u8>>,\n\
               }\n\
               pub struct Unit;\n\
               pub struct Tuple(Mutex<u8>);\n\
               pub fn f(m: Mutex<u8>) {\n\
               \x20   let local: Mutex<u8> = m;\n\
               }\n";
    let findings = lint(&[("crates/x/src/l.rs", src)], LOCK_CONFIG);
    let lines = pass_lines(&findings, "lock-order");
    assert_eq!(
        lines,
        vec![
            ("crates/x/src/l.rs".to_string(), 3),
            ("crates/x/src/l.rs".to_string(), 6),
        ]
    );
    assert!(findings[0].message.contains("`gamma`"), "{}", findings[0]);
}

#[test]
fn lock_order_declared_and_test_only_lock_fields_are_clean() {
    let src = "struct S {\n\
               \x20   alpha: Mutex<u8>,\n\
               \x20   beta: std::sync::Mutex<u8>,\n\
               }\n\
               #[cfg(test)]\nmod tests {\n\
               \x20   struct Fake {\n\
               \x20       gamma: Mutex<u8>,\n\
               \x20   }\n\
               }\n";
    // The same field name in a file that declares no such lock is still a
    // finding: declarations are per (file, field).
    let other = "struct T {\n    alpha: Mutex<u8>,\n}\n";
    let findings = lint(
        &[("crates/x/src/l.rs", src), ("crates/x/src/other.rs", other)],
        LOCK_CONFIG,
    );
    assert_eq!(
        pass_lines(&findings, "lock-order"),
        vec![("crates/x/src/other.rs".to_string(), 2)]
    );
}

// ───────────────────────────── atomics ─────────────────────────────────

#[test]
fn atomics_relaxed_without_annotation_is_flagged() {
    let src = "pub fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n";
    let findings = lint(&[("crates/x/src/a.rs", src)], "");
    assert_eq!(
        pass_lines(&findings, passes::name::ATOMICS),
        vec![("crates/x/src/a.rs".to_string(), 1)]
    );
}

#[test]
fn atomics_annotated_and_acquire_release_are_clean() {
    let src = "pub fn f(c: &AtomicU64) -> u64 {\n\
               \x20   c.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok — telemetry counter\n\
               \x20   // lint: relaxed-ok — stats snapshot\n\
               \x20   let n = c.load(Ordering::Relaxed);\n\
               \x20   c.store(n, Ordering::Release);\n\
               \x20   c.load(Ordering::Acquire)\n\
               }\n";
    let findings = lint(&[("crates/x/src/a.rs", src)], "");
    assert_eq!(pass_lines(&findings, passes::name::ATOMICS), vec![]);
}

#[test]
fn atomics_test_code_is_exempt() {
    let src =
        "#[cfg(test)]\nmod tests {\n    fn t(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n}\n";
    let findings = lint(&[("crates/x/src/a.rs", src)], "");
    assert_eq!(pass_lines(&findings, passes::name::ATOMICS), vec![]);
}

#[test]
fn atomics_allowlisted_file_is_silent() {
    let src = "pub fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n";
    let config = "[[allow]]\npass = \"atomics\"\npath = \"crates/x/src/a.rs\"\n\
                  reason = \"counters audited in PR 10\"\n";
    assert_eq!(lint(&[("crates/x/src/a.rs", src)], config), vec![]);
}

// ───────────────────────────── nondet ──────────────────────────────────

#[test]
fn nondet_violations_are_detected() {
    let src = "pub fn f() {\n\
               \x20   let t = Instant::now();\n\
               \x20   let s = SystemTime::now();\n\
               \x20   let r: u64 = rand::random();\n\
               }\n";
    let findings = lint(&[("crates/x/src/a.rs", src)], "");
    assert_eq!(
        pass_lines(&findings, passes::name::NONDET),
        vec![
            ("crates/x/src/a.rs".to_string(), 2),
            ("crates/x/src/a.rs".to_string(), 3),
            ("crates/x/src/a.rs".to_string(), 4),
        ]
    );
}

#[test]
fn nondet_guard_rs_tests_and_annotations_are_exempt() {
    let timed = "pub fn f() { let t = Instant::now(); }\n";
    let annotated = "pub fn f() { let t = Instant::now(); } // lint: nondet-ok — telemetry only\n";
    let test_src = "#[test]\nfn t() { let _ = Instant::now(); }\n";
    let findings = lint(
        &[
            ("crates/storage/src/guard.rs", timed),
            ("crates/x/src/annotated.rs", annotated),
            ("crates/x/src/gated.rs", test_src),
            ("crates/x/benches/bench.rs", timed),
        ],
        "",
    );
    assert_eq!(pass_lines(&findings, passes::name::NONDET), vec![]);
}

// ──────────────────── allowlist + annotation hygiene ───────────────────

#[test]
fn stale_allow_entry_is_reported() {
    let config = "[[allow]]\npass = \"io-seam\"\npath = \"crates/x/src/gone.rs\"\n\
                  reason = \"was needed once\"\n";
    let findings = lint(&[("crates/x/src/a.rs", "pub fn f() {}\n")], config);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].pass, passes::name::ALLOWLIST);
    assert!(findings[0].message.contains("stale"), "{}", findings[0]);
}

#[test]
fn malformed_annotation_is_reported() {
    let src = "pub fn f() {} // lint: relaxed-ok\n";
    let findings = lint(&[("crates/x/src/a.rs", src)], "");
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].pass, passes::name::ANNOTATION);
    assert!(findings[0].message.contains("reason"), "{}", findings[0]);
}

#[test]
fn missing_allow_reason_is_a_config_error() {
    let err = Config::parse("[[allow]]\npass = \"nondet\"\npath = \"x.rs\"\n").unwrap_err();
    assert!(err.message.contains("reason"), "{err}");
}

// ──────────────────────── workspace self-check ─────────────────────────

/// `kathdb-lint` must run clean on the workspace itself, and the
/// committed baseline must match the tree exactly (the ratchet state is
/// never allowed to drift).
#[test]
fn workspace_is_clean_under_kathdb_lint() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let result = kath_lint::run(&root).expect("lint.toml and lint-baseline.json are committed");
    let rendered: Vec<String> = result.findings.iter().map(|f| f.to_string()).collect();
    assert_eq!(rendered, Vec::<String>::new(), "workspace must lint clean");
    // The committed baseline is exactly what the tree generates.
    let committed = std::fs::read_to_string(root.join("lint-baseline.json")).expect("baseline");
    assert_eq!(
        Baseline::parse(&committed).expect("parses"),
        result.generated_baseline(),
        "lint-baseline.json must be regenerated via `kathdb-lint --write-baseline`"
    );
    // The lock-order pass actually observed the engine's canonical
    // nesting — the analysis must not silently go vacuous.
    assert!(
        result
            .edges
            .iter()
            .any(|e| e.held_name == "txn.commit" && e.acquired_name == "txn.current"),
        "expected the commit→current edge in txn.rs, got {:?}",
        result.edges
    );
}
