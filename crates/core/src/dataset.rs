//! Dataset manifests: the evidence a dataset carries about its own
//! preparation.
//!
//! The assessor (see [`crate::assess`]) never trusts a declared readiness
//! level; it derives one from the manifest's recorded evidence. An
//! archetype sets that evidence once its pipeline has completed, and
//! provenance records the transitions.

use crate::readiness::ProcessingStage;
use crate::CoreError;
use drai_io::json::Json;
use drai_tensor::DType;

/// Data modality (Table 1's "Modality" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modality {
    /// Spatial/temporal grids (climate fields).
    Grid,
    /// Multichannel time series (fusion diagnostics).
    TimeSeries,
    /// Symbol sequences (DNA, protein).
    Sequence,
    /// Rows and columns (EHR).
    Tabular,
    /// Node/edge structures (materials).
    Graph,
    /// Dense images.
    Image,
}

impl Modality {
    /// Stable name for manifests.
    pub const fn name(self) -> &'static str {
        match self {
            Modality::Grid => "grid",
            Modality::TimeSeries => "time-series",
            Modality::Sequence => "sequence",
            Modality::Tabular => "tabular",
            Modality::Graph => "graph",
            Modality::Image => "image",
        }
    }

    /// Parse a manifest name.
    pub fn from_name(s: &str) -> Option<Modality> {
        Some(match s {
            "grid" => Modality::Grid,
            "time-series" => Modality::TimeSeries,
            "sequence" => Modality::Sequence,
            "tabular" => Modality::Tabular,
            "graph" => Modality::Graph,
            "image" => Modality::Image,
            _ => return None,
        })
    }
}

/// One variable/channel/column in the dataset schema.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableSpec {
    /// Variable name.
    pub name: String,
    /// Storage dtype.
    pub dtype: DType,
    /// Physical unit symbol ("K", "A", "1"); empty when unknown — a
    /// readiness deficiency the assessor notices.
    pub unit: String,
    /// Per-sample shape (empty = scalar).
    pub shape: Vec<usize>,
}

/// Evidence of what preparation a dataset has undergone.
///
/// Boolean fields are *claims backed by pipeline execution* — a domain
/// archetype sets them once its whole pipeline has completed (a failed
/// run yields an error, never a manifest), and integration tests verify
/// a fresh synthetic dataset walks levels 1→5 as the flags accumulate.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetManifest {
    /// Dataset name.
    pub name: String,
    /// Scientific domain ("climate", "fusion", "bio", "materials", ...).
    pub domain: String,
    /// Primary modality.
    pub modality: Modality,
    /// Variables (empty until a schema is established).
    pub schema: Vec<VariableSpec>,
    /// Total sample/record count.
    pub records: u64,

    // --- Ingest evidence ---
    /// Data is held in a standard, self-describing format.
    pub standard_format: bool,
    /// Ingestion validated (checksums verified, schema checked).
    pub ingest_validated: bool,
    /// Metadata enriched (units, schema, descriptions present).
    pub metadata_enriched: bool,
    /// Ingestion path is parallel/high-throughput.
    pub high_throughput_ingest: bool,
    /// Ingestion runs without manual steps.
    pub ingest_automated: bool,

    // --- Preprocess evidence ---
    /// Initial spatial/temporal alignment or regridding done.
    pub aligned_initial: bool,
    /// Alignment standardized (common grid/clock across sources).
    pub aligned_standardized: bool,
    /// Alignment integrated and automated.
    pub alignment_automated: bool,

    // --- Transform evidence ---
    /// Initial normalization (or anonymization where required) applied.
    pub normalized_initial: bool,
    /// Normalization/anonymization finalized (fitted stats recorded).
    pub normalized_final: bool,
    /// Transform stage automated and audited (provenance captured).
    pub transform_audited: bool,
    /// Dataset contains PHI/PII and therefore requires anonymization.
    pub requires_anonymization: bool,
    /// Anonymization applied and verified (k-anonymity / scan clean).
    pub anonymized: bool,
    /// Fraction of samples with labels, 0..=1.
    pub label_coverage: f64,

    // --- Structure evidence ---
    /// Domain-specific features extracted.
    pub features_extracted: bool,
    /// Feature extraction automated and validated against invariants.
    pub features_validated: bool,

    // --- Shard evidence ---
    /// Train/val/test split assigned.
    pub split_assigned: bool,
    /// Sharded into binary formats with a manifest.
    pub sharded: bool,

    // --- Quality ---
    /// Fraction of missing values after preprocessing, 0..=1.
    pub missing_fraction: f64,
}

impl DatasetManifest {
    /// A new, entirely raw dataset (level 1 evidence only).
    pub fn raw(name: &str, domain: &str, modality: Modality, records: u64) -> DatasetManifest {
        DatasetManifest {
            name: name.to_string(),
            domain: domain.to_string(),
            modality,
            schema: Vec::new(),
            records,
            standard_format: false,
            ingest_validated: false,
            metadata_enriched: false,
            high_throughput_ingest: false,
            ingest_automated: false,
            aligned_initial: false,
            aligned_standardized: false,
            alignment_automated: false,
            normalized_initial: false,
            normalized_final: false,
            transform_audited: false,
            requires_anonymization: false,
            anonymized: false,
            label_coverage: 0.0,
            features_extracted: false,
            features_validated: false,
            split_assigned: false,
            sharded: false,
            missing_fraction: 0.0,
        }
    }

    /// Validate internal consistency (fractions in range, implications
    /// like `normalized_final → normalized_initial` hold).
    pub fn validate(&self) -> Result<(), crate::CoreError> {
        let frac_ok = |f: f64| (0.0..=1.0).contains(&f);
        if !frac_ok(self.label_coverage) {
            return Err(crate::CoreError::InvalidManifest(format!(
                "label_coverage {}",
                self.label_coverage
            )));
        }
        if !frac_ok(self.missing_fraction) {
            return Err(crate::CoreError::InvalidManifest(format!(
                "missing_fraction {}",
                self.missing_fraction
            )));
        }
        let implications = [
            (
                self.normalized_final,
                self.normalized_initial,
                "normalized_final → normalized_initial",
            ),
            (
                self.aligned_standardized,
                self.aligned_initial,
                "aligned_standardized → aligned_initial",
            ),
            (
                self.alignment_automated,
                self.aligned_standardized,
                "alignment_automated → aligned_standardized",
            ),
            (
                self.features_validated,
                self.features_extracted,
                "features_validated → features_extracted",
            ),
            (
                self.ingest_automated,
                self.high_throughput_ingest,
                "ingest_automated → high_throughput_ingest",
            ),
            (
                self.transform_audited,
                self.normalized_final,
                "transform_audited → normalized_final",
            ),
        ];
        for (a, b, what) in implications {
            if a && !b {
                return Err(crate::CoreError::InvalidManifest(format!(
                    "inconsistent evidence: {what}"
                )));
            }
        }
        Ok(())
    }

    /// Which stages have *any* recorded evidence — used by reports.
    pub fn touched_stages(&self) -> Vec<ProcessingStage> {
        let mut out = vec![ProcessingStage::Ingest];
        if self.aligned_initial {
            out.push(ProcessingStage::Preprocess);
        }
        if self.normalized_initial || self.anonymized || self.label_coverage > 0.0 {
            out.push(ProcessingStage::Transform);
        }
        if self.features_extracted {
            out.push(ProcessingStage::Structure);
        }
        if self.split_assigned || self.sharded {
            out.push(ProcessingStage::Shard);
        }
        out
    }

    /// Serialize to JSON (for sidecar files and provenance).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.clone())),
            ("domain", Json::from(self.domain.clone())),
            ("modality", Json::from(self.modality.name())),
            ("records", Json::from(self.records)),
            (
                "schema",
                Json::Arr(
                    self.schema
                        .iter()
                        .map(|v| {
                            Json::obj([
                                ("name", Json::from(v.name.clone())),
                                ("dtype", Json::from(v.dtype.to_string())),
                                ("unit", Json::from(v.unit.clone())),
                                (
                                    "shape",
                                    Json::Arr(v.shape.iter().map(|&d| Json::from(d)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "evidence",
                Json::obj([
                    ("standard_format", Json::from(self.standard_format)),
                    ("ingest_validated", Json::from(self.ingest_validated)),
                    ("metadata_enriched", Json::from(self.metadata_enriched)),
                    (
                        "high_throughput_ingest",
                        Json::from(self.high_throughput_ingest),
                    ),
                    ("ingest_automated", Json::from(self.ingest_automated)),
                    ("aligned_initial", Json::from(self.aligned_initial)),
                    (
                        "aligned_standardized",
                        Json::from(self.aligned_standardized),
                    ),
                    ("alignment_automated", Json::from(self.alignment_automated)),
                    ("normalized_initial", Json::from(self.normalized_initial)),
                    ("normalized_final", Json::from(self.normalized_final)),
                    ("transform_audited", Json::from(self.transform_audited)),
                    (
                        "requires_anonymization",
                        Json::from(self.requires_anonymization),
                    ),
                    ("anonymized", Json::from(self.anonymized)),
                    ("label_coverage", Json::from(self.label_coverage)),
                    ("features_extracted", Json::from(self.features_extracted)),
                    ("features_validated", Json::from(self.features_validated)),
                    ("split_assigned", Json::from(self.split_assigned)),
                    ("sharded", Json::from(self.sharded)),
                    ("missing_fraction", Json::from(self.missing_fraction)),
                ]),
            ),
        ])
    }

    /// Parse the JSON [`DatasetManifest::to_json`] writes. An absent
    /// schema reads as empty, absent evidence flags as `false` and absent
    /// fractions as 0; a missing header or schema field or `evidence`
    /// object, an unknown modality or dtype, or a shape dim that is not a
    /// non-negative integer is an error.
    pub fn from_json(v: &Json) -> Result<DatasetManifest, CoreError> {
        let bad = CoreError::InvalidManifest;
        let field = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("missing string {key:?}")))
        };
        let modality = field(v, "modality")?;
        let modality = Modality::from_name(&modality)
            .ok_or_else(|| bad(format!("unknown modality {modality:?}")))?;
        let records = v
            .get("records")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing integer \"records\"".into()))?;
        let mut m =
            DatasetManifest::raw(&field(v, "name")?, &field(v, "domain")?, modality, records);
        for s in v.get("schema").and_then(Json::as_arr).unwrap_or_default() {
            let dtype = field(s, "dtype")?;
            let shape = s
                .get("shape")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("missing array \"shape\"".into()))?;
            m.schema.push(VariableSpec {
                name: field(s, "name")?,
                dtype: DType::ALL
                    .into_iter()
                    .find(|d| d.to_string() == dtype)
                    .ok_or_else(|| bad(format!("unknown dtype {dtype:?}")))?,
                unit: field(s, "unit")?,
                shape: shape
                    .iter()
                    .map(|d| {
                        d.as_u64()
                            .map(|d| d as usize)
                            .ok_or_else(|| bad(format!("shape dim {d:?} is not an integer")))
                    })
                    .collect::<Result<_, _>>()?,
            });
        }
        let e = v
            .get("evidence")
            .ok_or_else(|| bad("missing \"evidence\"".into()))?;
        let b = |key: &str| e.get(key).and_then(Json::as_bool).unwrap_or(false);
        let f = |key: &str| e.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        m.standard_format = b("standard_format");
        m.ingest_validated = b("ingest_validated");
        m.metadata_enriched = b("metadata_enriched");
        m.high_throughput_ingest = b("high_throughput_ingest");
        m.ingest_automated = b("ingest_automated");
        m.aligned_initial = b("aligned_initial");
        m.aligned_standardized = b("aligned_standardized");
        m.alignment_automated = b("alignment_automated");
        m.normalized_initial = b("normalized_initial");
        m.normalized_final = b("normalized_final");
        m.transform_audited = b("transform_audited");
        m.requires_anonymization = b("requires_anonymization");
        m.anonymized = b("anonymized");
        m.label_coverage = f("label_coverage");
        m.features_extracted = b("features_extracted");
        m.features_validated = b("features_validated");
        m.split_assigned = b("split_assigned");
        m.sharded = b("sharded");
        m.missing_fraction = f("missing_fraction");
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_manifest_is_valid_and_minimal() {
        let m = DatasetManifest::raw("cmip-synth", "climate", Modality::Grid, 1000);
        m.validate().unwrap();
        assert_eq!(m.touched_stages(), vec![ProcessingStage::Ingest]);
        assert_eq!(m.records, 1000);
    }

    #[test]
    fn modality_name_round_trip() {
        for m in [
            Modality::Grid,
            Modality::TimeSeries,
            Modality::Sequence,
            Modality::Tabular,
            Modality::Graph,
            Modality::Image,
        ] {
            assert_eq!(Modality::from_name(m.name()), Some(m));
        }
        assert_eq!(Modality::from_name("hologram"), None);
    }

    #[test]
    fn implication_violations_detected() {
        let mut m = DatasetManifest::raw("x", "fusion", Modality::TimeSeries, 10);
        m.normalized_final = true; // without normalized_initial
        assert!(m.validate().is_err());
        m.normalized_initial = true;
        m.validate().unwrap();

        let mut m2 = DatasetManifest::raw("x", "fusion", Modality::TimeSeries, 10);
        m2.alignment_automated = true;
        assert!(m2.validate().is_err());

        let mut m3 = DatasetManifest::raw("x", "bio", Modality::Tabular, 10);
        m3.label_coverage = 1.5;
        assert!(m3.validate().is_err());
        m3.label_coverage = 0.5;
        m3.missing_fraction = -0.1;
        assert!(m3.validate().is_err());
    }

    #[test]
    fn touched_stages_accumulate() {
        let mut m = DatasetManifest::raw("x", "climate", Modality::Grid, 10);
        m.aligned_initial = true;
        m.normalized_initial = true;
        m.features_extracted = true;
        m.sharded = true;
        assert_eq!(m.touched_stages().len(), 5);
    }

    #[test]
    fn json_contains_evidence() {
        let mut m = DatasetManifest::raw("x", "bio", Modality::Sequence, 5);
        m.schema.push(VariableSpec {
            name: "onehot".into(),
            dtype: DType::F32,
            unit: "1".into(),
            shape: vec![196_608, 4],
        });
        m.anonymized = true;
        let j = m.to_json();
        assert_eq!(j.get("name").unwrap().as_str(), Some("x"));
        assert_eq!(
            j.get("evidence")
                .unwrap()
                .get("anonymized")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        let schema = j.get("schema").unwrap().as_arr().unwrap();
        assert_eq!(schema[0].get("dtype").unwrap().as_str(), Some("f32"));
        // Round-trip through text restores the manifest exactly.
        m.schema.push(VariableSpec {
            name: "energy".into(),
            dtype: DType::F64,
            unit: "eV".into(),
            shape: vec![],
        });
        m.label_coverage = 0.75;
        m.missing_fraction = 0.125;
        m.sharded = true;
        let text = m.to_json().to_string_compact();
        let back = DatasetManifest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
        // Unknown dtypes and non-integer dims are rejected, not coerced.
        for (from, to) in [
            ("\"dtype\":\"f32\"", "\"dtype\":\"f16\""),
            ("[196608,4]", "[196608,4.5]"),
            ("[196608,4]", "[196608,\"4\"]"),
        ] {
            assert!(text.contains(from), "{text}");
            let hostile = Json::parse(&text.replacen(from, to, 1)).unwrap();
            assert!(DatasetManifest::from_json(&hostile).is_err(), "{to}");
        }
        assert!(DatasetManifest::from_json(&Json::parse("{}").unwrap()).is_err());
    }
}
