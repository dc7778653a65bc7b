//! `expected.json`: the digests and counts every workload must reproduce
//! at the default seed. Other seeds check self-consistency only.

use crate::harness::{Args, Outcome};
use std::collections::BTreeMap;

/// The seed the pins were taken at.
pub const PINNED_SEED: u64 = 4242;

pub struct Pins(BTreeMap<String, String>);

impl Pins {
    /// Read the pins compiled into the binary. The file is a flat JSON
    /// object of strings with one `"workload.key": "value"` pair per
    /// line, which is all this reader understands.
    pub fn load() -> Pins {
        let text = include_str!("../expected.json");
        let pairs = text.lines().filter_map(|line| {
            let (key, value) = line.trim().trim_end_matches(',').split_once(": ")?;
            Some((
                key.trim_matches('"').to_string(),
                value.trim_matches('"').to_string(),
            ))
        });
        Pins(pairs.collect())
    }

    /// At the pinned seed, `observed` must equal the pin of
    /// `<workload>.<key>`; a missing pin fails too, so a new check cannot
    /// go unpinned.
    pub fn check(&self, out: &mut Outcome, args: &Args, key: &str, observed: &str) {
        if args.seed != PINNED_SEED {
            return;
        }
        let name = format!("{}.{key}", args.workload);
        let pinned = self.0.get(&name).map(String::as_str);
        out.check(pinned == Some(observed), || {
            format!("{name}: expected.json pins {pinned:?}, this run produced {observed:?}")
        });
    }
}
