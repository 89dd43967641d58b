//! The reference outputs every served or rendered document is checked
//! against, byte for byte.
//!
//! - Tiny-scale paper documents: the pinned files in `ci/pinned/`.
//! - fig5 at small scale: `ci/pinned/small/RESULTS_fig5.json`.
//! - Every other document: an FNV-1a 64 digest and length recorded here
//!   from `repro --json` output of the same commit the pins come from.

use crate::stats::fnv1a;
use mds_bench::EXPERIMENT_IDS;
use mds_workloads::Scale;
use std::collections::HashMap;
use std::path::Path;

/// `(experiment, digest, length)` of the small-scale documents.
const SMALL_DIGESTS: [(&str, u64, usize); 16] = [
    ("table1", 0x236e_3420_fd7b_7ddb, 2247),
    ("table2", 0x708f_1469_7709_2218, 934),
    ("table3", 0xdb03_2b78_8225_f07a, 1019),
    ("table4", 0xa3e1_eb29_98fe_6a54, 956),
    ("table5", 0xf6ba_2189_7a8b_2295, 1363),
    ("table6", 0xcfc5_6a5d_1d8d_865b, 490),
    ("table7", 0x6729_bcef_2a3e_0fd5, 1002),
    ("table8", 0x5e88_3241_415d_0cfc, 1791),
    ("table9", 0x3ab1_a8f2_e72c_3fd0, 812),
    ("fig5", 0x6e62_0e8c_99bc_e0f0, 1431),
    ("fig6", 0x3f48_97cf_e994_4a27, 1249),
    ("fig7", 0x8315_9d82_b362_fe0a, 1966),
    ("ablate-mdpt", 0x2cc2_e008_b6a9_ef2c, 1427),
    ("ablate-tagging", 0x262e_85fa_a2d3_c531, 1080),
    ("ablate-counter", 0xd6bb_8ec5_d0cc_0224, 605),
    ("ablate-ooo", 0xa778_6c1d_7055_0d90, 1430),
];

/// `(experiment, digest, length)` of the tiny-scale ablation documents,
/// which have no pinned file.
const TINY_ABLATION_DIGESTS: [(&str, u64, usize); 4] = [
    ("ablate-mdpt", 0x2934_006d_0d68_1397, 1396),
    ("ablate-tagging", 0xe402_6143_5d5b_927f, 1065),
    ("ablate-counter", 0x93fd_f4a7_eb90_8f69, 599),
    ("ablate-ooo", 0x852a_e0fc_f259_7e5d, 1415),
];

/// One expected document.
enum Reference {
    /// The exact bytes, from a pinned file.
    Bytes(Vec<u8>),
    /// Digest and length of the exact bytes.
    Digest(u64, usize),
}

/// Reference documents for every `(experiment, scale)` key the
/// benchmark requests.
pub struct Expected {
    docs: HashMap<(String, Scale), Reference>,
}

impl Expected {
    /// Loads the pinned files under `root/ci/pinned` and the recorded
    /// digests.
    pub fn load(root: &Path) -> Result<Expected, String> {
        let pinned = root.join("ci").join("pinned");
        let read = |path: &Path| {
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
        };
        let mut docs = HashMap::new();
        for id in EXPERIMENT_IDS {
            let tiny = pinned.join(format!("RESULTS_{id}.json"));
            let reference = if tiny.exists() {
                Reference::Bytes(read(&tiny)?)
            } else {
                let (_, digest, len) = TINY_ABLATION_DIGESTS
                    .iter()
                    .find(|(name, _, _)| *name == id)
                    .ok_or_else(|| format!("no tiny-scale reference for {id}"))?;
                Reference::Digest(*digest, *len)
            };
            docs.insert((id.to_string(), Scale::Tiny), reference);
        }
        for (id, digest, len) in SMALL_DIGESTS {
            docs.insert(
                (id.to_string(), Scale::Small),
                Reference::Digest(digest, len),
            );
        }
        let fig5 = read(&pinned.join("small").join("RESULTS_fig5.json"))?;
        docs.insert(("fig5".to_string(), Scale::Small), Reference::Bytes(fig5));
        Ok(Expected { docs })
    }

    /// Whether `body` is exactly the reference document for the key.
    pub fn matches(&self, id: &str, scale: Scale, body: &[u8]) -> bool {
        match self.docs.get(&(id.to_string(), scale)) {
            Some(Reference::Bytes(bytes)) => bytes.as_slice() == body,
            Some(Reference::Digest(digest, len)) => body.len() == *len && fnv1a(body) == *digest,
            None => false,
        }
    }

    /// Whether `body` is exactly the concatenation of the reference
    /// documents of `ids`, in order — the shape of a grid response.
    pub fn matches_concat(&self, ids: &[&str], scale: Scale, body: &[u8]) -> bool {
        let mut rest = body;
        for id in ids {
            let len = match self.docs.get(&(id.to_string(), scale)) {
                Some(Reference::Bytes(bytes)) => bytes.len(),
                Some(Reference::Digest(_, len)) => *len,
                None => return false,
            };
            if rest.len() < len || !self.matches(id, scale, &rest[..len]) {
                return false;
            }
            rest = &rest[len..];
        }
        rest.is_empty()
    }
}
