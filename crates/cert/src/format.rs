//! The versioned certificate format.
//!
//! A [`Certificate`] is a self-contained proof object: it embeds the base
//! graph's exact coefficients (so the verifier re-checks the tensor identity
//! instead of trusting an algorithm name) plus one [`Payload`] — a routing
//! witness, a schedule-legality witness, or a sweep I/O witness.
//!
//! ## Version/compat policy
//!
//! [`FORMAT_VERSION`] is bumped on any change that alters the meaning of an
//! existing field or the verification semantics. The verifier accepts
//! exactly the current version and rejects everything else with
//! `MMIO-V001` — a certificate is a proof, and a proof under different
//! rules is not a proof. Purely additive evolutions (new payload kinds)
//! keep the version; unknown kinds are rejected as malformed by old
//! verifiers, which is the safe direction.
//!
//! ## Encoding
//!
//! JSON via the workspace shims, with insertion-ordered object fields —
//! serialization is deterministic, so byte-stability across thread counts
//! reduces to value-stability of the emitting engines (which the
//! round-trip tests pin). Schedules are encoded as one action-kind
//! character per step (`L`oad/`S`tore/`C`ompute/`D`rop) plus a parallel
//! vertex array: compact, diffable, and free of nested enums the offline
//! serde shim cannot derive.
//!
//! Neither direction builds a `serde::Value` tree: a schedule certificate
//! holds millions of integers, and a tree spends 32 bytes on each.
//! [`Certificate::to_json`] writes the text straight from the typed fields,
//! and [`Certificate::from_json`] validates the text in one scan, then
//! decodes each field from its slice, integer columns straight into
//! `Vec<u32>`/`Vec<u64>`. Both produce the bytes, values and error messages
//! the derived `Serialize`/`Deserialize` impls of the same structs do.

use serde::{de, Deserialize, Serialize, Value};
use serde_json::{write_object, Fields, Raw, ToJson};

use mmio_matrix::{Matrix, Rational};

/// Current certificate format version (see the module docs for the policy).
pub const FORMAT_VERSION: u32 = 1;

/// The embedded base-graph coefficients: everything the closed-form view
/// needs to re-derive `G_r`. Mirrors `mmio_cdag::BaseGraph` data, but kept
/// as plain matrices so deserialization never runs engine constructors
/// (which panic on inconsistent shapes — the verifier must reject instead).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaseSpec {
    /// Algorithm name (informational; never trusted for structure).
    pub name: String,
    /// Block side `n₀` of one recursion step.
    pub n0: usize,
    /// `b × a` encoding of `A` (`a = n₀²`).
    pub enc_a: Matrix<Rational>,
    /// `b × a` encoding of `B`.
    pub enc_b: Matrix<Rational>,
    /// `a × b` decoding.
    pub dec: Matrix<Rational>,
}

impl BaseSpec {
    /// Snapshots an engine base graph's coefficients into the certificate
    /// form. This is the emitters' bridge; the verifier never goes the
    /// other way.
    pub fn from_base(g: &mmio_cdag::BaseGraph) -> BaseSpec {
        use mmio_cdag::base::Side;
        BaseSpec {
            name: g.name().to_string(),
            n0: g.n0(),
            enc_a: g.enc(Side::A).clone(),
            enc_b: g.enc(Side::B).clone(),
            dec: g.dec().clone(),
        }
    }
}

/// A `6a^k`-routing witness with its Fact-1 transport into `G_r`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoutingPayload {
    /// Depth of the routed subgraph `G_k`.
    pub k: u32,
    /// Depth of the enclosing `G_r` the routing is transported into.
    pub r: u32,
    /// Claimed Routing Theorem bound (`6a^k`).
    pub bound: u64,
    /// Claimed maximum per-vertex hits over the paths.
    pub max_vertex_hits: u64,
    /// Claimed maximum per-copy-group hits (once per touching path).
    pub max_meta_hits: u64,
    /// The `2a^{2k}` paths, as dense vertex ids of the *standalone* `G_k`.
    pub paths: Vec<Vec<u32>>,
    /// Fact-1 transport: the multiplication prefixes (one per copy of `G_k`
    /// inside `G_r`) the routing is claimed to hold in. A complete
    /// transport lists all `b^{r-k}` prefixes.
    pub copy_prefixes: Vec<u64>,
}

/// A schedule-legality witness: the full action trace plus the claims the
/// verifier re-derives by replay.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SchedulePayload {
    /// Recursion depth of the scheduled `G_r`.
    pub r: u32,
    /// Cache size `M` the schedule claims to respect.
    pub m: u64,
    /// One character per action: `L`oad, `S`tore, `C`ompute, `D`rop.
    pub ops: String,
    /// The acted-on vertex per action (dense `G_r` ids), parallel to `ops`.
    pub vertices: Vec<u32>,
    /// Claimed number of loads.
    pub loads: u64,
    /// Claimed number of stores.
    pub stores: u64,
    /// Claimed number of computes.
    pub computes: u64,
    /// Claimed peak cache occupancy over the whole trace.
    pub peak_occupancy: u64,
    /// Operand residency intervals: vertex `res_vertex[i]` is resident from
    /// just after action `res_start[i]` until just before action
    /// `res_end[i]` (`== ops.len()` when still resident at termination).
    pub res_vertex: Vec<u32>,
    /// Interval start action indices, parallel to `res_vertex`.
    pub res_start: Vec<u64>,
    /// Interval end action indices, parallel to `res_vertex`.
    pub res_end: Vec<u64>,
}

/// A pebble-sweep I/O witness: claimed exact I/O statistics over a cache-
/// size grid, checked against closed-form structural floors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepPayload {
    /// Recursion depth of the swept `G_r`.
    pub r: u32,
    /// Replacement-policy name (informational).
    pub policy: String,
    /// The cache-size grid.
    pub ms: Vec<u64>,
    /// Whether each grid point was feasible (`M ≥ max_indegree + 1`),
    /// parallel to `ms`.
    pub feasible: Vec<bool>,
    /// Claimed loads per feasible point (0 for infeasible), parallel to `ms`.
    pub loads: Vec<u64>,
    /// Claimed stores per point, parallel to `ms`.
    pub stores: Vec<u64>,
    /// Claimed computes per point, parallel to `ms`.
    pub computes: Vec<u64>,
}

/// The payload variants a certificate can carry.
#[derive(Clone, Debug)]
pub enum Payload {
    /// A routing witness.
    Routing(RoutingPayload),
    /// A schedule-legality witness.
    Schedule(SchedulePayload),
    /// A sweep I/O witness.
    Sweep(SweepPayload),
}

impl Payload {
    /// The payload's kind tag as serialized.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Routing(_) => "routing",
            Payload::Schedule(_) => "schedule",
            Payload::Sweep(_) => "sweep",
        }
    }
}

/// A complete, self-contained certificate.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Format version ([`FORMAT_VERSION`] when emitted by this build).
    pub version: u32,
    /// The embedded base-graph coefficients.
    pub base: BaseSpec,
    /// The witness itself.
    pub payload: Payload,
}

impl Certificate {
    /// Wraps a payload in a current-version envelope.
    pub fn new(base: BaseSpec, payload: Payload) -> Certificate {
        Certificate {
            version: FORMAT_VERSION,
            base,
            payload,
        }
    }

    /// Serializes to compact, deterministic JSON, written straight from
    /// the typed fields.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Decodes JSON text: one validating scan, then a decode straight from
    /// slices of the text. A non-object document decodes as an object with
    /// no members, so it fails on the missing `version`.
    pub fn from_json(s: &str) -> Result<Certificate, serde_json::Error> {
        let doc = Raw::parse(s)?;
        Certificate::from_fields(&mut doc.fields().unwrap_or_default())
    }

    /// Decodes the members of a certificate's top-level object, in
    /// declaration order; the first field that fails is the error.
    pub fn from_fields(f: &mut Fields<'_>) -> Result<Certificate, serde_json::Error> {
        let version = f.decode("version")?;
        let kind: String = f.decode("kind")?;
        let base = BaseSpec::from_raw(f.field("base")?)?;
        let payload = f.field("payload")?;
        let payload = match kind.as_str() {
            "routing" => Payload::Routing(RoutingPayload::from_raw(payload)?),
            "schedule" => Payload::Schedule(SchedulePayload::from_raw(payload)?),
            "sweep" => Payload::Sweep(SweepPayload::from_raw(payload)?),
            other => {
                return Err(de::Error::custom(format!("unknown certificate kind `{other}`")).into())
            }
        };
        Ok(Certificate {
            version,
            base,
            payload,
        })
    }
}

/// Reads just the `version` member of a certificate's top-level object, so
/// the verifier can tell "stale format" from "malformed" before a full
/// decode. Only a non-negative integer counts.
pub fn peek_version(f: &mut Fields<'_>) -> Option<u64> {
    let version = f.get("version").ok()??;
    if version.kind() != "integer" {
        return None;
    }
    match version.value().ok()? {
        Value::Int(i) if i >= 0 => Some(i as u64),
        Value::UInt(u) => Some(u),
        _ => None,
    }
}

/// The embedded coefficients as the JSON object `Matrix`'s `Serialize`
/// renders: shape, then `"num/den"` strings in row-major order.
struct Coeffs<'m>(&'m Matrix<Rational>);

impl ToJson for Coeffs<'_> {
    fn write_json(&self, out: &mut String) {
        let m = self.0;
        let data: Vec<String> = m.as_slice().iter().map(Rational::to_string).collect();
        write_object(
            out,
            &[("rows", &m.rows()), ("cols", &m.cols()), ("data", &data)],
        );
    }
}

/// Decodes embedded coefficients as `Matrix`'s `Deserialize` does: a
/// non-object has no members, so it fails on the missing `rows`.
fn coeffs_from_raw(raw: Raw<'_>) -> Result<Matrix<Rational>, serde_json::Error> {
    let mut f = raw.fields().unwrap_or_default();
    let rows = f.decode("rows")?;
    let cols = f.decode("cols")?;
    let data = f.decode_vec("data")?;
    Ok(Matrix::try_from_vec(rows, cols, data)
        .ok_or_else(|| de::Error::custom("matrix shape/data mismatch"))?)
}

impl ToJson for BaseSpec {
    fn write_json(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("name", &self.name),
                ("n0", &self.n0),
                ("enc_a", &Coeffs(&self.enc_a)),
                ("enc_b", &Coeffs(&self.enc_b)),
                ("dec", &Coeffs(&self.dec)),
            ],
        );
    }
}

impl BaseSpec {
    fn from_raw(raw: Raw<'_>) -> Result<BaseSpec, serde_json::Error> {
        let mut f = raw.fields()?;
        Ok(BaseSpec {
            name: f.decode("name")?,
            n0: f.decode("n0")?,
            enc_a: coeffs_from_raw(f.field("enc_a")?)?,
            enc_b: coeffs_from_raw(f.field("enc_b")?)?,
            dec: coeffs_from_raw(f.field("dec")?)?,
        })
    }
}

impl ToJson for RoutingPayload {
    fn write_json(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("k", &self.k),
                ("r", &self.r),
                ("bound", &self.bound),
                ("max_vertex_hits", &self.max_vertex_hits),
                ("max_meta_hits", &self.max_meta_hits),
                ("paths", &self.paths),
                ("copy_prefixes", &self.copy_prefixes),
            ],
        );
    }
}

impl RoutingPayload {
    fn from_raw(raw: Raw<'_>) -> Result<RoutingPayload, serde_json::Error> {
        let mut f = raw.fields()?;
        Ok(RoutingPayload {
            k: f.decode("k")?,
            r: f.decode("r")?,
            bound: f.decode("bound")?,
            max_vertex_hits: f.decode("max_vertex_hits")?,
            max_meta_hits: f.decode("max_meta_hits")?,
            paths: f.decode_nested("paths")?,
            copy_prefixes: f.decode_vec("copy_prefixes")?,
        })
    }
}

impl ToJson for SchedulePayload {
    fn write_json(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("r", &self.r),
                ("m", &self.m),
                ("ops", &self.ops),
                ("vertices", &self.vertices),
                ("loads", &self.loads),
                ("stores", &self.stores),
                ("computes", &self.computes),
                ("peak_occupancy", &self.peak_occupancy),
                ("res_vertex", &self.res_vertex),
                ("res_start", &self.res_start),
                ("res_end", &self.res_end),
            ],
        );
    }
}

impl SchedulePayload {
    fn from_raw(raw: Raw<'_>) -> Result<SchedulePayload, serde_json::Error> {
        let mut f = raw.fields()?;
        Ok(SchedulePayload {
            r: f.decode("r")?,
            m: f.decode("m")?,
            ops: f.decode("ops")?,
            vertices: f.decode_vec("vertices")?,
            loads: f.decode("loads")?,
            stores: f.decode("stores")?,
            computes: f.decode("computes")?,
            peak_occupancy: f.decode("peak_occupancy")?,
            res_vertex: f.decode_vec("res_vertex")?,
            res_start: f.decode_vec("res_start")?,
            res_end: f.decode_vec("res_end")?,
        })
    }
}

impl ToJson for SweepPayload {
    fn write_json(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("r", &self.r),
                ("policy", &self.policy),
                ("ms", &self.ms),
                ("feasible", &self.feasible),
                ("loads", &self.loads),
                ("stores", &self.stores),
                ("computes", &self.computes),
            ],
        );
    }
}

impl SweepPayload {
    fn from_raw(raw: Raw<'_>) -> Result<SweepPayload, serde_json::Error> {
        let mut f = raw.fields()?;
        Ok(SweepPayload {
            r: f.decode("r")?,
            policy: f.decode("policy")?,
            ms: f.decode_vec("ms")?,
            feasible: f.decode_vec("feasible")?,
            loads: f.decode_vec("loads")?,
            stores: f.decode_vec("stores")?,
            computes: f.decode_vec("computes")?,
        })
    }
}

impl ToJson for Payload {
    fn write_json(&self, out: &mut String) {
        match self {
            Payload::Routing(p) => p.write_json(out),
            Payload::Schedule(p) => p.write_json(out),
            Payload::Sweep(p) => p.write_json(out),
        }
    }
}

impl ToJson for Certificate {
    fn write_json(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("version", &self.version),
                ("kind", &self.payload.kind()),
                ("base", &self.base),
                ("payload", &self.payload),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base() -> BaseSpec {
        let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
        BaseSpec {
            name: "unit".into(),
            n0: 1,
            enc_a: one.clone(),
            enc_b: one.clone(),
            dec: one,
        }
    }

    #[test]
    fn routing_roundtrip_is_identity_and_byte_stable() {
        let cert = Certificate::new(
            tiny_base(),
            Payload::Routing(RoutingPayload {
                k: 1,
                r: 2,
                bound: 6,
                max_vertex_hits: 2,
                max_meta_hits: 2,
                paths: vec![vec![0, 1, 2], vec![2, 1, 0]],
                copy_prefixes: vec![0],
            }),
        );
        let json = cert.to_json();
        let back = Certificate::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json, "serialization must be a fixpoint");
        assert_eq!(back.version, FORMAT_VERSION);
        match back.payload {
            Payload::Routing(p) => assert_eq!(p.paths.len(), 2),
            other => panic!("wrong kind {:?}", other.kind()),
        }
    }

    #[test]
    fn schedule_and_sweep_roundtrip() {
        let sched = Certificate::new(
            tiny_base(),
            Payload::Schedule(SchedulePayload {
                r: 1,
                m: 3,
                ops: "LCS".into(),
                vertices: vec![0, 1, 1],
                loads: 1,
                stores: 1,
                computes: 1,
                peak_occupancy: 2,
                res_vertex: vec![0, 1],
                res_start: vec![0, 1],
                res_end: vec![3, 3],
            }),
        );
        let back = Certificate::from_json(&sched.to_json()).unwrap();
        assert_eq!(back.payload.kind(), "schedule");

        let sweep = Certificate::new(
            tiny_base(),
            Payload::Sweep(SweepPayload {
                r: 1,
                policy: "lru".into(),
                ms: vec![2, 4],
                feasible: vec![false, true],
                loads: vec![0, 2],
                stores: vec![0, 1],
                computes: vec![0, 3],
            }),
        );
        let back = Certificate::from_json(&sweep.to_json()).unwrap();
        assert_eq!(back.payload.kind(), "sweep");
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut cert_json = Certificate::new(
            tiny_base(),
            Payload::Sweep(SweepPayload {
                r: 1,
                policy: "lru".into(),
                ms: vec![],
                feasible: vec![],
                loads: vec![],
                stores: vec![],
                computes: vec![],
            }),
        )
        .to_json();
        cert_json = cert_json.replace("\"sweep\"", "\"oracle\"");
        assert_eq!(
            Certificate::from_json(&cert_json).unwrap_err().to_string(),
            "unknown certificate kind `oracle`"
        );
    }

    #[test]
    fn peek_version_reads_envelope_only() {
        let peek = |s: &str| peek_version(&mut Raw::parse(s).unwrap().fields().unwrap());
        assert_eq!(peek(r#"{"version": 7, "junk": []}"#), Some(7));
        assert_eq!(peek(r#"{"version": 7, "version": -1}"#), Some(7));
        assert_eq!(peek(r#"{"nope": 1}"#), None);
        assert_eq!(peek(r#"{"version": -1}"#), None);
        assert_eq!(peek(r#"{"version": 1.0}"#), None);
        assert_eq!(peek(r#"{"version": [1]}"#), None);
    }

    #[test]
    fn non_object_documents_miss_the_version() {
        for doc in ["[]", "1", "\"certificate\"", "null"] {
            assert_eq!(
                Certificate::from_json(doc).unwrap_err().to_string(),
                "missing field `version`"
            );
        }
    }
}
