//! The audit policy: trust roots, the external-call allow/deny table,
//! audited feature gates, and render/payload sink roots.
//!
//! Everything here is workspace policy, versioned with the code it
//! audits. Changing a root or table entry changes what the auditor
//! proves — treat edits like editing a spec.

/// A fn the auditor must prove panic-free (together with everything it
/// transitively calls outside `catch_unwind` isolation).
#[derive(Clone, Copy, Debug)]
pub struct TrustRoot {
    /// Package name (`mmio-cert`).
    pub crate_name: &'static str,
    /// Impl type, when the root is a method.
    pub type_name: Option<&'static str>,
    /// Bare fn name.
    pub fn_name: &'static str,
    /// Why this root is trusted — rendered in reports.
    pub why: &'static str,
}

/// The panic-freedom trust roots.
///
/// Two surfaces carry the repo's external promises:
///
/// 1. **Certificate verification** (`mmio-cert`): `verify_json` /
///    `verify` are the minimal TCB — a malformed or adversarial
///    certificate must yield a typed verdict, never a panic.
/// 2. **The serve request path** (`mmio-serve`): protocol decode →
///    engine dispatch → response render. Compute engines below
///    `run_job`'s `catch_unwind` may panic (that surfaces as a typed
///    `F006` response); the dispatch layer itself may not.
pub const TRUST_ROOTS: &[TrustRoot] = &[
    TrustRoot {
        crate_name: "mmio-cert",
        type_name: None,
        fn_name: "verify_json",
        why: "certificate verification TCB entry point (JSON)",
    },
    TrustRoot {
        crate_name: "mmio-cert",
        type_name: None,
        fn_name: "verify",
        why: "certificate verification TCB entry point (typed)",
    },
    TrustRoot {
        crate_name: "mmio-serve",
        type_name: Some("Engine"),
        fn_name: "handle_line",
        why: "serve request path: protocol decode + dispatch",
    },
    TrustRoot {
        crate_name: "mmio-serve",
        type_name: Some("Engine"),
        fn_name: "submit",
        why: "serve request path: job admission",
    },
    TrustRoot {
        crate_name: "mmio-serve",
        type_name: None,
        fn_name: "run_job",
        why: "serve request path: job execution shell (engines are \
              isolated below catch_unwind)",
    },
    TrustRoot {
        crate_name: "mmio-serve",
        type_name: Some("Request"),
        fn_name: "from_line",
        why: "serve request path: wire decode",
    },
    TrustRoot {
        crate_name: "mmio-serve",
        type_name: Some("Response"),
        fn_name: "to_line",
        why: "serve request path: wire encode",
    },
];

/// External (std / shim) call names treated as panic sites wherever they
/// appear on a trust path. Everything *not* on this list that fails to
/// resolve to a workspace item is allowed — the table is the explicit
/// boundary of the proof, per the conservative-externals policy.
pub const DENIED_EXTERNAL_CALLS: &[&str] = &[
    // Slice APIs that panic on out-of-range arguments.
    "split_at",
    "split_at_mut",
    "copy_from_slice",
    "clone_from_slice",
    "swap_remove",
    // Process-fatal in every profile.
    "abort",
    "exit_with_panic",
];

/// Method names so common on std containers/iterators that an
/// *untyped* `.name(` receiver is overwhelmingly a std call, not a
/// workspace one. When the receiver's type cannot be established from
/// a local binding, calls to these names are classified external
/// instead of fanning out to every same-named workspace method.
/// Typed receivers (`recv: Type` / `let recv = Type::…` / `self`)
/// still resolve to workspace methods of these names.
pub const AMBIENT_STD_METHODS: &[&str] = &[
    "all",
    "any",
    "as_bytes",
    "as_ref",
    "as_slice",
    "as_str",
    "chars",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "insert",
    "into_iter",
    "is_char_boundary",
    "is_empty",
    "is_some_and",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "partition",
    "pop",
    "position",
    "push",
    "push_str",
    "read_line",
    "remove",
    "repeat",
    "retain",
    "rev",
    "reverse",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "splitn",
    "starts_with",
    "step_by",
    "sum",
    "take",
    "take_while",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "trim_end",
    "trim_start",
    "truncate",
    "values",
    "values_mut",
    "windows",
    "zip",
];

/// Feature names whose gated items must stay unreachable from default
/// (ungated) builds: fault-injection and tracing hooks.
pub const AUDITED_FEATURES: &[&str] = &["mutate", "engine-mutate", "trace"];

/// Fns whose output is rendered or serialized — HashMap/HashSet
/// iteration reaching these (transitively) would make output order
/// nondeterministic (`MMIO-L020`).
pub const RENDER_ROOTS: &[(&str, &str)] = &[
    ("mmio-serve", "to_line"),
    ("mmio-serve", "stats_payload"),
    ("mmio-serve", "certify"),
    ("mmio-serve", "analyze_json"),
    ("mmio-serve", "sweep_json"),
    ("mmio-serve", "routing_cert_json"),
    ("mmio-cert", "to_json"),
    ("mmio-cert", "emit_certificate"),
    ("mmio-cert", "emit_schedule_certificate"),
    ("mmio-cert", "emit_sweep_certificate"),
];

/// Fns that build certificate or memo-key payloads — wall-clock reads
/// (`SystemTime::now` / `Instant::now`) reaching these would break
/// reproducibility (`MMIO-L021`).
pub const PAYLOAD_ROOTS: &[(&str, &str)] = &[
    ("mmio-cert", "to_json"),
    ("mmio-cert", "emit_certificate"),
    ("mmio-cert", "emit_schedule_certificate"),
    ("mmio-cert", "emit_sweep_certificate"),
    ("mmio-serve", "cache_key"),
];

/// Files whose diagnostic-code mentions are *expectations*: mutation
/// harnesses and self-test suites assert that codes fire — they do not
/// emit them. The registry pass counts occurrences here as `tested`
/// evidence instead of emissions.
pub const EXPECTATION_FILES: &[&str] = &[
    "crates/check/src/bin/cert_mutate.rs",
    "crates/check/src/suite.rs",
    "crates/bench/src/bin/exp_e12_extension.rs",
];

/// Whether `rel_path` is an expectation file (see [`EXPECTATION_FILES`]).
pub fn is_expectation_file(rel_path: &str) -> bool {
    EXPECTATION_FILES.contains(&rel_path)
}

/// Crates excluded from the source model entirely: the shims are
/// stand-ins for external dependencies — they sit *outside* the trust
/// boundary exactly like the real crates they replace would.
pub fn crate_dir_excluded(dir_name: &str) -> bool {
    dir_name == "shims"
}

/// Path fragments excluded from the real-workspace scan: the planted
/// fixture workspace exists to violate every rule on purpose.
pub fn path_excluded(rel_path: &str) -> bool {
    rel_path.contains("/fixtures/")
}
