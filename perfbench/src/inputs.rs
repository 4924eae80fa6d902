//! Seeded benchmark inputs, generated by a child process and cached under `.bench_inputs/`
//! in the working directory.
//!
//! Generation runs in a child process so neither its time nor its memory reaches the
//! measured process (`peak_rss_mb` reads this process's own peak). Every input comes from
//! `shp-datagen`'s streaming power-law generator with the web-BerkStan shape; a small
//! metadata file records the counts and an order-independent pin checksum taken from the
//! generator's stream, which the benchmark compares against the graph the program loads.
//!
//! The cache outlives a build: a cached input may have been written by another version of
//! the generator or of the file format. So every run's child process re-derives the
//! metadata from the current generator's stream and loads the cached file with the current
//! reader; it keeps the cached input only when both agree, and regenerates it otherwise.

use shp_datagen::{power_law_bipartite, Dataset, PowerLawConfig, PowerLawStream};
use shp_hypergraph::io::{self, QueryStream};
use shp_hypergraph::BipartiteGraph;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where cached inputs live, relative to the working directory.
pub const CACHE_DIR: &str = ".bench_inputs";

/// On-disk format of a generated graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `.shpb` container, written by the bounded-memory streaming writer.
    Shpb,
    /// hMetis text.
    Hmetis,
}

/// One generated input: a web-BerkStan-shaped power-law graph at `scale`, from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    pub format: Format,
    pub scale: f64,
    pub seed: u64,
}

/// What the generator's stream says the graph must contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    pub queries: u64,
    pub data: u64,
    pub pins: u64,
    pub checksum: u64,
}

impl InputSpec {
    fn config(&self) -> PowerLawConfig {
        Dataset::WebBerkStan
            .power_law_config(self.scale, self.seed)
            .expect("web-BerkStan is a power-law dataset")
    }

    fn key(&self) -> String {
        let ext = match self.format {
            Format::Shpb => "shpb",
            Format::Hmetis => "hgr",
        };
        format!("berkstan-{}-{}-{}", self.scale, ext, self.seed)
    }

    fn dir(&self) -> PathBuf {
        Path::new(CACHE_DIR).join(self.key())
    }

    /// Path of the graph file.
    pub fn graph_path(&self) -> PathBuf {
        let name = match self.format {
            Format::Shpb => "graph.shpb",
            Format::Hmetis => "graph.hgr",
        };
        self.dir().join(name)
    }

    /// Returns the input's metadata, after a child process has checked the cached input
    /// against the current generator and reader, or generated it.
    pub fn ensure(&self) -> Result<Meta, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let format = match self.format {
            Format::Shpb => "shpb",
            Format::Hmetis => "hmetis",
        };
        let status = Command::new(exe)
            .args([
                "--generate",
                format,
                &self.scale.to_string(),
                &self.seed.to_string(),
            ])
            .status()
            .map_err(|e| format!("spawning the input generator: {e}"))?;
        if !status.success() {
            return Err(format!("input generator failed: {status}"));
        }
        read_meta(&self.dir())
    }

    /// Loads the graph file with the reader for its format.
    pub fn load(&self) -> Result<BipartiteGraph, String> {
        let path = self.graph_path();
        let loaded = match self.format {
            Format::Shpb => io::map_shpb_file(&path),
            Format::Hmetis => io::read_graph_file_with(&path, 1),
        };
        loaded.map_err(|e| format!("loading {}: {e}", path.display()))
    }

    /// Child-process side: keeps the cached input when its metadata equals the current
    /// generator's stream and the current reader loads it to that graph; otherwise generates
    /// it into a temporary directory and renames that into place, so a reader never sees a
    /// half-written input.
    pub fn generate(&self) -> Result<(), String> {
        let config = self.config();
        let meta = stream_meta(&config);
        let dir = self.dir();
        if read_meta(&dir) == Ok(meta) && self.load().is_ok_and(|g| graph_meta(&g) == meta) {
            return Ok(());
        }
        let tmp = Path::new(CACHE_DIR).join(format!("{}.tmp{}", self.key(), std::process::id()));
        std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        let file = tmp.join(self.graph_path().file_name().expect("file name"));
        match self.format {
            Format::Shpb => {
                io::stream_shpb_file(&mut PowerLawStream::new(config), &file)
                    .map_err(|e| format!("streaming {}: {e}", file.display()))?;
            }
            Format::Hmetis => {
                io::write_hmetis_file(&power_law_bipartite(&config), &file)
                    .map_err(|e| format!("writing {}: {e}", file.display()))?;
            }
        }
        let text = format!(
            "{} {} {} {}\n",
            meta.queries, meta.data, meta.pins, meta.checksum
        );
        std::fs::write(tmp.join("meta"), text).map_err(|e| format!("meta: {e}"))?;
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        match std::fs::rename(&tmp, &dir) {
            Ok(()) => Ok(()),
            // Another process generated the same input meanwhile: keep theirs.
            Err(_) if read_meta(&dir) == Ok(meta) => {
                let _ = std::fs::remove_dir_all(&tmp);
                Ok(())
            }
            Err(e) => Err(format!("{}: {e}", dir.display())),
        }
    }
}

fn read_meta(dir: &Path) -> Result<Meta, String> {
    let text = std::fs::read_to_string(dir.join("meta")).map_err(|e| e.to_string())?;
    let nums: Vec<u64> = text
        .split_whitespace()
        .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    match nums[..] {
        [queries, data, pins, checksum] => Ok(Meta {
            queries,
            data,
            pins,
            checksum,
        }),
        _ => Err("malformed meta".into()),
    }
}

/// A fixed 64-bit mix (splitmix64 finalizer).
pub fn mix(value: u64) -> u64 {
    let mut z = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pin_hash(q: u64, v: u64) -> u64 {
    mix((q << 32) ^ v)
}

/// Counts and checksum of the generator's stream, with each query's pins canonicalised
/// (sorted, deduplicated) the way every graph builder in the program stores them.
fn stream_meta(config: &PowerLawConfig) -> Meta {
    let mut stream = PowerLawStream::new(config.clone());
    let mut meta = Meta {
        queries: 0,
        data: stream.min_data_count() as u64,
        pins: 0,
        checksum: 0,
    };
    let mut pins: Vec<u32> = Vec::new();
    stream.for_each_query(&mut |raw| {
        pins.clear();
        pins.extend_from_slice(raw);
        pins.sort_unstable();
        pins.dedup();
        for &v in &pins {
            meta.checksum = meta.checksum.wrapping_add(pin_hash(meta.queries, v as u64));
            meta.data = meta.data.max(v as u64 + 1);
        }
        meta.pins += pins.len() as u64;
        meta.queries += 1;
    });
    meta
}

/// The same counts and checksum, taken from a loaded graph.
pub fn graph_meta(graph: &BipartiteGraph) -> Meta {
    let mut checksum = 0u64;
    for q in graph.queries() {
        for &v in graph.query_neighbors(q) {
            checksum = checksum.wrapping_add(pin_hash(q as u64, v as u64));
        }
    }
    Meta {
        queries: graph.num_queries() as u64,
        data: graph.num_data() as u64,
        pins: graph.num_edges() as u64,
        checksum,
    }
}
