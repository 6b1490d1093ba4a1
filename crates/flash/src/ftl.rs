//! A minimal page-mapping flash translation layer.
//!
//! Writes never overwrite in place: each logical page programs into the
//! next free slot of a die's open block (dies rotate round-robin so bulk
//! writes engage all dies), and the previous mapping is invalidated.
//! When a die runs low on free blocks, a greedy garbage collector picks
//! the block with the fewest valid pages, relocates the survivors and
//! erases it.
//!
//! [`Ftl::write`] returns the physical operations the device must time —
//! including any GC reads/programs/erases — so the device model charges
//! exactly the work the FTL caused.

use crate::geometry::FlashGeometry;
use std::collections::HashMap;
use util::json::{field, FromJson, Json, JsonError, ToJson};

/// Typed FTL request failures.
///
/// These used to be panics; fault injection (and hostile workloads)
/// can reach the write path, so they are surfaced as values the device
/// layer can propagate or contextualize instead of crashing the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlError {
    /// The host addressed a logical page beyond the exported capacity.
    OvercapacityWrite {
        /// The offending logical page number.
        lpn: u64,
        /// First invalid logical page (exported capacity in pages).
        limit: u64,
    },
    /// A die ran out of free blocks — GC failed to keep headroom.
    NoFreeBlock {
        /// The die that has no free block left.
        die: usize,
    },
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FtlError::OvercapacityWrite { lpn, limit } => {
                write!(
                    f,
                    "logical page {lpn} beyond exported capacity ({limit} pages)"
                )
            }
            FtlError::NoFreeBlock { die } => {
                write!(
                    f,
                    "die {die} has no free block — GC failed to keep headroom"
                )
            }
        }
    }
}

impl std::error::Error for FtlError {}

/// A physical page location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysPage {
    /// Die index.
    pub die: usize,
    /// Block within the die.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

util::json_struct!(PhysPage { die, block, page });

/// A physical operation the FTL requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlOp {
    /// Read a page (GC relocation source).
    Read(PhysPage),
    /// Program a page (host write or GC relocation destination).
    Program(PhysPage),
    /// Erase a block.
    Erase {
        /// Die index.
        die: usize,
        /// Block within the die.
        block: u32,
    },
}

impl util::json::ToJson for FtlOp {
    fn to_json(&self) -> util::json::Json {
        use util::json::Json;
        match *self {
            FtlOp::Read(p) => Json::Obj(vec![("Read".to_string(), p.to_json())]),
            FtlOp::Program(p) => Json::Obj(vec![("Program".to_string(), p.to_json())]),
            FtlOp::Erase { die, block } => Json::Obj(vec![(
                "Erase".to_string(),
                Json::Obj(vec![
                    ("die".to_string(), die.to_json()),
                    ("block".to_string(), block.to_json()),
                ]),
            )]),
        }
    }
}

impl util::json::FromJson for FtlOp {
    fn from_json(v: &util::json::Json) -> Result<Self, util::json::JsonError> {
        use util::json::{field, Json, JsonError};
        let pairs = match v {
            Json::Obj(pairs) if pairs.len() == 1 => pairs,
            _ => return Err(JsonError::new("expected single-key FtlOp object")),
        };
        let (tag, body) = &pairs[0];
        match tag.as_str() {
            "Read" => Ok(FtlOp::Read(PhysPage::from_json(body)?)),
            "Program" => Ok(FtlOp::Program(PhysPage::from_json(body)?)),
            "Erase" => Ok(FtlOp::Erase {
                die: field(body, "die")?,
                block: field(body, "block")?,
            }),
            other => Err(JsonError::new(format!("unknown FtlOp variant {other:?}"))),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Block {
    /// Next free page slot; `pages_per_block` means full.
    write_ptr: u32,
    /// Which logical page each slot holds (`None` = invalid/free).
    owners: Vec<Option<u64>>,
    valid: u32,
}

util::json_struct!(Block {
    write_ptr,
    owners,
    valid
});

impl Block {
    fn new(pages: u32) -> Self {
        Block {
            write_ptr: 0,
            owners: vec![None; pages as usize],
            valid: 0,
        }
    }

    fn is_free(&self) -> bool {
        self.write_ptr == 0 && self.valid == 0
    }

    fn is_full(&self, pages: u32) -> bool {
        self.write_ptr == pages
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DieState {
    open_block: Option<u32>,
}

util::json_struct!(DieState { open_block });

/// FTL statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host page writes accepted.
    pub host_programs: u64,
    /// Extra programs caused by GC relocation.
    pub gc_programs: u64,
    /// Blocks erased.
    pub erases: u64,
}

util::json_struct!(FtlStats {
    host_programs,
    gc_programs,
    erases
});

impl FtlStats {
    /// Write amplification factor: total programs / host programs.
    pub fn write_amplification(&self) -> f64 {
        if self.host_programs == 0 {
            1.0
        } else {
            (self.host_programs + self.gc_programs) as f64 / self.host_programs as f64
        }
    }
}

/// The page-mapping FTL.
#[derive(Debug, Clone, PartialEq)]
pub struct Ftl {
    geometry: FlashGeometry,
    map: HashMap<u64, PhysPage>,
    blocks: Vec<Vec<Block>>, // [die][block]
    dies: Vec<DieState>,
    /// Round-robin die cursor for host writes.
    next_die: usize,
    /// GC kicks in when a die has fewer free blocks than this.
    gc_low_water: u32,
    stats: FtlStats,
}

/// The image form of an [`Ftl`]'s `[die][block]` table: its shape plus
/// only the blocks that differ from a fresh [`Block::new`]. Restore
/// rebuilds the untouched blocks, so an image costs what the workload
/// wrote, not the device's size.
#[derive(Debug)]
struct SparseBlocks {
    dies: usize,
    blocks_per_die: u32,
    pages_per_block: u32,
    /// `(die, block, state)`, ascending by `(die, block)`.
    touched: Vec<(usize, u32, Block)>,
}

util::json_struct!(SparseBlocks {
    dies,
    blocks_per_die,
    pages_per_block,
    touched
});

impl SparseBlocks {
    fn of(geometry: &FlashGeometry, blocks: &[Vec<Block>]) -> Self {
        let fresh = Block::new(geometry.pages_per_block);
        let mut touched = Vec::new();
        for (die, row) in blocks.iter().enumerate() {
            for (b, blk) in row.iter().enumerate() {
                if *blk != fresh {
                    touched.push((die, b as u32, blk.clone()));
                }
            }
        }
        SparseBlocks {
            dies: geometry.dies,
            blocks_per_die: geometry.blocks_per_die,
            pages_per_block: geometry.pages_per_block,
            touched,
        }
    }

    /// Rebuilds the full table, rejecting a shape that disagrees with
    /// `geometry` and listed blocks that could not have been written.
    fn expand(self, geometry: &FlashGeometry) -> Result<Vec<Vec<Block>>, JsonError> {
        let shape = (self.dies, self.blocks_per_die, self.pages_per_block);
        let expected = (
            geometry.dies,
            geometry.blocks_per_die,
            geometry.pages_per_block,
        );
        if shape != expected {
            return Err(JsonError::new(format!(
                "block table shape {shape:?} disagrees with the geometry {expected:?}"
            )));
        }
        let pages = self.pages_per_block;
        let mut blocks = vec![vec![Block::new(pages); self.blocks_per_die as usize]; self.dies];
        let mut listed = vec![vec![false; self.blocks_per_die as usize]; self.dies];
        for (die, b, blk) in self.touched {
            let at = format!("block [{die}][{b}]");
            let Some(seen) = listed.get_mut(die).and_then(|d| d.get_mut(b as usize)) else {
                return Err(JsonError::new(format!(
                    "{at} is outside the {}x{} block table",
                    self.dies, self.blocks_per_die
                )));
            };
            if std::mem::replace(seen, true) {
                return Err(JsonError::new(format!("{at} is listed twice")));
            }
            let valid = blk.owners.iter().filter(|o| o.is_some()).count();
            if blk.owners.len() != pages as usize
                || blk.write_ptr > pages
                || valid != blk.valid as usize
            {
                return Err(JsonError::new(format!(
                    "{at} is inconsistent: {} owner slots, write pointer {}, {} valid for {valid} owned",
                    blk.owners.len(),
                    blk.write_ptr,
                    blk.valid
                )));
            }
            blocks[die][b as usize] = blk;
        }
        Ok(blocks)
    }
}

impl ToJson for Ftl {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("geometry".to_string(), self.geometry.to_json()),
            ("map".to_string(), self.map.to_json()),
            (
                "blocks".to_string(),
                SparseBlocks::of(&self.geometry, &self.blocks).to_json(),
            ),
            ("dies".to_string(), self.dies.to_json()),
            ("next_die".to_string(), self.next_die.to_json()),
            ("gc_low_water".to_string(), self.gc_low_water.to_json()),
            ("stats".to_string(), self.stats.to_json()),
        ])
    }
}

impl FromJson for Ftl {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let ctx = |e: JsonError| e.context("Ftl");
        let geometry: FlashGeometry = field(v, "geometry").map_err(ctx)?;
        let blocks = field::<SparseBlocks>(v, "blocks")
            .and_then(|s| s.expand(&geometry).map_err(|e| e.context("blocks")))
            .map_err(ctx)?;
        Ok(Ftl {
            geometry,
            map: field(v, "map").map_err(ctx)?,
            blocks,
            dies: field(v, "dies").map_err(ctx)?,
            next_die: field(v, "next_die").map_err(ctx)?,
            gc_low_water: field(v, "gc_low_water").map_err(ctx)?,
            stats: field(v, "stats").map_err(ctx)?,
        })
    }
}

impl Ftl {
    /// Creates an FTL over `geometry`, garbage-collecting when a die
    /// drops below `gc_low_water` free blocks.
    ///
    /// # Panics
    ///
    /// Panics if `gc_low_water` is zero or leaves no writable blocks.
    pub fn new(geometry: FlashGeometry, gc_low_water: u32) -> Self {
        assert!(
            gc_low_water >= 1 && gc_low_water < geometry.blocks_per_die,
            "gc_low_water must be in 1..blocks_per_die"
        );
        Ftl {
            blocks: (0..geometry.dies)
                .map(|_| {
                    (0..geometry.blocks_per_die)
                        .map(|_| Block::new(geometry.pages_per_block))
                        .collect()
                })
                .collect(),
            dies: vec![DieState::default(); geometry.dies],
            map: HashMap::new(),
            next_die: 0,
            gc_low_water,
            geometry,
            stats: FtlStats::default(),
        }
    }

    /// The geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Statistics.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// Looks up where a logical page currently lives.
    pub fn translate(&self, lpn: u64) -> Option<PhysPage> {
        self.map.get(&lpn).copied()
    }

    /// Number of mapped logical pages.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    fn free_blocks(&self, die: usize) -> u32 {
        self.blocks[die].iter().filter(|b| b.is_free()).count() as u32
    }

    fn take_open_block(&mut self, die: usize) -> Result<u32, FtlError> {
        if let Some(b) = self.dies[die].open_block {
            if !self.blocks[die][b as usize].is_full(self.geometry.pages_per_block) {
                return Ok(b);
            }
            self.dies[die].open_block = None;
        }
        let b = self.blocks[die]
            .iter()
            .position(|b| b.is_free())
            .ok_or(FtlError::NoFreeBlock { die })? as u32;
        self.dies[die].open_block = Some(b);
        Ok(b)
    }

    fn program_into(&mut self, die: usize, lpn: u64) -> Result<PhysPage, FtlError> {
        let block = self.take_open_block(die)?;
        let blk = &mut self.blocks[die][block as usize];
        let page = blk.write_ptr;
        blk.write_ptr += 1;
        blk.owners[page as usize] = Some(lpn);
        blk.valid += 1;
        let loc = PhysPage { die, block, page };
        if let Some(old) = self.map.insert(lpn, loc) {
            let ob = &mut self.blocks[old.die][old.block as usize];
            ob.owners[old.page as usize] = None;
            ob.valid -= 1;
        }
        Ok(loc)
    }

    /// Records a host write of logical page `lpn`, returning the physical
    /// operations (program + any GC work) the device must execute, in
    /// order.
    ///
    /// # Errors
    ///
    /// [`FtlError::OvercapacityWrite`] for a logical page beyond the
    /// exported capacity; [`FtlError::NoFreeBlock`] if GC cannot keep
    /// headroom on the target die.
    pub fn write(&mut self, lpn: u64) -> Result<Vec<FtlOp>, FtlError> {
        let limit = self.geometry.logical_pages(10);
        if lpn >= limit {
            return Err(FtlError::OvercapacityWrite { lpn, limit });
        }
        let die = self.next_die;
        self.next_die = (self.next_die + 1) % self.geometry.dies;

        let mut ops = Vec::new();
        let loc = self.program_into(die, lpn)?;
        self.stats.host_programs += 1;
        ops.push(FtlOp::Program(loc));

        // Greedy GC to maintain headroom on this die.
        while self.free_blocks(die) < self.gc_low_water {
            let victim = self.pick_victim(die);
            let Some(victim) = victim else { break };
            // Relocate survivors.
            let owners: Vec<(u32, u64)> = self.blocks[die][victim as usize]
                .owners
                .iter()
                .enumerate()
                .filter_map(|(p, o)| o.map(|l| (p as u32, l)))
                .collect();
            for (page, l) in owners {
                ops.push(FtlOp::Read(PhysPage {
                    die,
                    block: victim,
                    page,
                }));
                let dst = self.program_into(die, l)?;
                self.stats.gc_programs += 1;
                ops.push(FtlOp::Program(dst));
            }
            let blk = &mut self.blocks[die][victim as usize];
            *blk = Block::new(self.geometry.pages_per_block);
            self.stats.erases += 1;
            ops.push(FtlOp::Erase { die, block: victim });
        }
        Ok(ops)
    }

    /// Victim = full, non-open block with the fewest valid pages.
    fn pick_victim(&self, die: usize) -> Option<u32> {
        let open = self.dies[die].open_block;
        self.blocks[die]
            .iter()
            .enumerate()
            .filter(|(i, b)| Some(*i as u32) != open && b.is_full(self.geometry.pages_per_block))
            .min_by_key(|(_, b)| b.valid)
            .map(|(i, _)| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl() -> Ftl {
        Ftl::new(FlashGeometry::tiny(), 2)
    }

    #[test]
    fn first_write_maps_page() {
        let mut f = ftl();
        let ops = f.write(0).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], FtlOp::Program(_)));
        assert!(f.translate(0).is_some());
        assert_eq!(f.mapped_pages(), 1);
    }

    #[test]
    fn rewrite_moves_and_invalidates() {
        let mut f = ftl();
        f.write(7).unwrap();
        let first = f.translate(7).unwrap();
        f.write(7).unwrap();
        let second = f.translate(7).unwrap();
        assert_ne!(first, second, "no in-place overwrite on flash");
    }

    #[test]
    fn bulk_writes_rotate_dies() {
        let mut f = ftl();
        let mut dies = std::collections::HashSet::new();
        for lpn in 0..8 {
            f.write(lpn).unwrap();
            dies.insert(f.translate(lpn).unwrap().die);
        }
        assert_eq!(dies.len(), f.geometry().dies);
    }

    #[test]
    fn gc_reclaims_space_under_rewrite_pressure() {
        let mut f = ftl();
        // Hammer a small logical range far beyond raw capacity.
        let logical = 8u64;
        for round in 0..200 {
            for lpn in 0..logical {
                f.write(lpn).unwrap();
            }
            let _ = round;
        }
        let s = *f.stats();
        assert!(s.erases > 0, "GC must have erased blocks");
        assert!(s.write_amplification() >= 1.0);
        // All logical pages still resolvable.
        for lpn in 0..logical {
            assert!(f.translate(lpn).is_some());
        }
    }

    #[test]
    fn gc_relocation_preserves_mappings() {
        let mut f = ftl();
        // Fill a good portion of the device once (these stay valid) …
        let keep = 48u64;
        for lpn in 0..keep {
            f.write(lpn).unwrap();
        }
        // …then churn one hot page to force GC around the cold data.
        for _ in 0..2_000 {
            f.write(keep).unwrap();
        }
        for lpn in 0..=keep {
            assert!(f.translate(lpn).is_some(), "lost mapping for {lpn}");
        }
        // Mapped locations stay mutually distinct (bijectivity).
        let locs: std::collections::HashSet<_> =
            (0..=keep).map(|l| f.translate(l).unwrap()).collect();
        assert_eq!(locs.len() as u64, keep + 1);
    }

    #[test]
    fn write_amplification_grows_with_churn() {
        let mut f = ftl();
        for _ in 0..3_000 {
            f.write(3).unwrap();
        }
        assert!(f.stats().write_amplification() >= 1.0);
        assert!(f.stats().erases > 10);
    }

    /// An FTL whose rewrites of a small hot range have filled, garbage
    /// collected and reopened blocks on both dies.
    fn churned() -> Ftl {
        let mut f = ftl();
        for i in 0..1000 {
            f.write(i % 24).unwrap();
        }
        assert!(f.stats().erases > 0);
        f
    }

    fn touched(image: &mut Json) -> &mut Vec<Json> {
        image
            .get_mut("blocks")
            .and_then(|b| b.get_mut("touched"))
            .and_then(Json::as_arr_mut)
            .expect("a touched list")
    }

    /// Element `i` of touched entry `entry`.
    fn entry(image: &mut Json, entry: usize, i: usize) -> &mut Json {
        &mut touched(image)[entry].as_arr_mut().expect("an entry tuple")[i]
    }

    #[test]
    fn images_list_only_touched_blocks_and_round_trip() {
        let f = churned();
        let mut image = f.to_json();
        let fresh = Block::new(f.geometry().pages_per_block);
        let untouched = f.blocks.iter().flatten().filter(|b| **b == fresh).count();
        let total = f.geometry().dies * f.geometry().blocks_per_die as usize;
        assert!(untouched > 0, "the churn left no block fresh");
        assert_eq!(touched(&mut image).len(), total - untouched);
        assert_eq!(Ftl::from_json(&image).unwrap(), f);
        assert_eq!(Ftl::from_json_str(&f.to_json_string()).unwrap(), f);
        let mut empty = ftl().to_json();
        assert!(touched(&mut empty).is_empty(), "a fresh FTL lists no block");
        assert_eq!(Ftl::from_json(&empty).unwrap(), ftl());
    }

    #[test]
    fn sparse_blocks_out_of_range_or_listed_twice_are_typed_errors() {
        let f = churned();
        let geometry = *f.geometry();
        let reject = |why: &str, edit: &dyn Fn(&mut Json)| {
            let mut image = f.to_json();
            edit(&mut image);
            let err = Ftl::from_json(&image).unwrap_err();
            assert!(err.msg.contains(why), "want {why:?}, got {err}");
        };
        reject("outside", &|v| {
            *entry(v, 0, 0) = Json::U64(geometry.dies as u64)
        });
        reject("outside", &|v| {
            *entry(v, 0, 1) = Json::U64(u64::from(geometry.blocks_per_die))
        });
        reject("listed twice", &|v| {
            let first = touched(v)[0].clone();
            touched(v).push(first);
        });
        reject("inconsistent", &|v| {
            let owners = entry(v, 0, 2).get_mut("owners").and_then(Json::as_arr_mut);
            owners.expect("owners").pop();
        });
        reject("shape", &|v| {
            *v.get_mut("blocks").unwrap().get_mut("dies").unwrap() = Json::U64(9);
        });
    }

    #[test]
    fn overcapacity_write_rejected_with_typed_error() {
        let mut f = ftl();
        let limit = f.geometry().logical_pages(10);
        let err = f.write(limit).unwrap_err();
        assert_eq!(err, FtlError::OvercapacityWrite { lpn: limit, limit });
        assert!(err.to_string().contains("beyond exported capacity"));
        // The failed request mutated nothing.
        assert_eq!(f.mapped_pages(), 0);
        assert_eq!(f.stats().host_programs, 0);
    }
}
