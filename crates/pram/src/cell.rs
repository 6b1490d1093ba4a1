//! Functional cell-array state: what every word stores and whether its
//! cells are pristine.
//!
//! Section II-A: a PRAM cell is SET (crystalline, logic "1", ~300 °C) or
//! RESET (amorphous, logic "0", >600 °C). We do not simulate thermals;
//! what matters architecturally is the *program cost asymmetry*:
//!
//! * programming a **pristine** (all-RESET) word only needs SET pulses
//!   → `t_program_set` (10 µs);
//! * **overwriting** a programmed word needs RESET *then* SET
//!   → `t_program_set + t_reset_extra` (18 µs);
//! * an **erase** RESETs a whole partition back to pristine in one 60 ms
//!   blocking operation;
//! * **selective erasing** (§V-A) programs an all-zero word, which mimics
//!   a RESET of just that word: afterwards the word is pristine again and
//!   the next overwrite is SET-only.
//!
//! The array is sparse: unwritten rows are pristine zeros.

use crate::geometry::{PartitionId, PramGeometry, RowId};
use util::fxhash::FxHashMap;
use util::json::{field, FromJson, Json, JsonError, ToJson};

/// Size of one program unit (row word) in bytes.
pub const WORD_BYTES: usize = 32;

/// One stored word and its cell condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Word {
    /// The 32 bytes held by the row.
    pub data: [u8; WORD_BYTES],
    /// Whether all cells are in the pristine (RESET) state, meaning the
    /// next program is SET-only.
    pub pristine: bool,
    /// Lifetime program count of this row (endurance accounting, §VII).
    pub programs: u32,
}

impl Default for Word {
    fn default() -> Self {
        Word {
            data: [0; WORD_BYTES],
            pristine: true,
            programs: 0,
        }
    }
}

/// The kind of cell operation a program performed, which decides latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramKind {
    /// Target word was pristine: SET pulses only.
    SetOnly,
    /// Target word held data: RESET then SET.
    Overwrite,
    /// All-zero data to a programmed word: behaves as a word-granular
    /// RESET (this is the *selective erasing* primitive).
    SelectiveErase,
    /// All-zero data to an already-pristine word: nothing to do.
    NoopErase,
}

util::json_unit_enum!(ProgramKind {
    SetOnly,
    Overwrite,
    SelectiveErase,
    NoopErase
});

/// The sparse cell array of one PRAM module.
///
/// # Examples
///
/// ```
/// use pram::cell::{CellArray, ProgramKind, WORD_BYTES};
/// use pram::geometry::{PramGeometry, RowId};
///
/// let mut cells = CellArray::new(PramGeometry::paper());
/// let row = RowId::new(0, 42);
/// let kind = cells.program(row, &[0xAB; WORD_BYTES]);
/// assert_eq!(kind, ProgramKind::SetOnly);
/// assert_eq!(cells.read(row)[0], 0xAB);
/// // A second write to the same word is an overwrite (RESET + SET).
/// assert_eq!(cells.program(row, &[0xCD; WORD_BYTES]), ProgramKind::Overwrite);
/// ```
#[derive(Debug, Clone)]
pub struct CellArray {
    geometry: PramGeometry,
    /// `geometry.rows_per_partition()`, which divides: the bound every
    /// access checks its row against.
    rows_per_partition: u32,
    rows: FxHashMap<RowId, Word>,
    programs: u64,
    overwrites: u64,
    selective_erases: u64,
    erases: u64,
}

/// The image form of one stored row: the tuple
/// `[partition, array_row, "hex word", pristine, programs]`.
struct RowImage(RowId, Word);

impl ToJson for RowImage {
    fn to_json(&self) -> Json {
        let RowImage(row, word) = self;
        Json::Arr(vec![
            row.partition.0.to_json(),
            row.array_row.to_json(),
            word.data.to_json(),
            word.pristine.to_json(),
            word.programs.to_json(),
        ])
    }
}

impl FromJson for RowImage {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let Some([partition, array_row, data, pristine, programs]) = v.as_arr() else {
            return Err(JsonError::new(format!(
                "expected a [partition, array_row, word, pristine, programs] row, got {}",
                v.kind()
            )));
        };
        let row = RowId::new(
            u8::from_json(partition).map_err(|e| e.context("partition"))?,
            u32::from_json(array_row).map_err(|e| e.context("array_row"))?,
        );
        let word = Word {
            data: FromJson::from_json(data).map_err(|e| e.context(&format!("row {row}")))?,
            pristine: bool::from_json(pristine).map_err(|e| e.context("pristine"))?,
            programs: u32::from_json(programs).map_err(|e| e.context("programs"))?,
        };
        Ok(RowImage(row, word))
    }
}

impl ToJson for CellArray {
    fn to_json(&self) -> Json {
        let mut rows: Vec<RowImage> = self.rows.iter().map(|(r, w)| RowImage(*r, *w)).collect();
        rows.sort_unstable_by_key(|r| r.0);
        Json::Obj(vec![
            ("geometry".to_string(), self.geometry.to_json()),
            ("rows".to_string(), rows.to_json()),
            ("programs".to_string(), self.programs.to_json()),
            ("overwrites".to_string(), self.overwrites.to_json()),
            (
                "selective_erases".to_string(),
                self.selective_erases.to_json(),
            ),
            ("erases".to_string(), self.erases.to_json()),
        ])
    }
}

impl FromJson for CellArray {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let ctx = |e: JsonError| e.context("CellArray");
        let geometry: PramGeometry = field(v, "geometry").map_err(ctx)?;
        let rows: Vec<RowImage> = field(v, "rows").map_err(ctx)?;
        // Rows are written strictly ascending, which also rules out a
        // row listed twice; every row must lie inside the geometry.
        for (i, RowImage(row, _)) in rows.iter().enumerate() {
            if i > 0 && rows[i - 1].0 >= *row {
                return Err(ctx(JsonError::new(format!(
                    "rows: row {row} is out of order or listed twice"
                ))));
            }
            if !geometry.contains(*row) {
                return Err(ctx(JsonError::new(format!(
                    "rows: row {row} is outside the geometry"
                ))));
            }
        }
        Ok(CellArray {
            geometry,
            rows_per_partition: geometry.rows_per_partition(),
            rows: rows.into_iter().map(|RowImage(r, w)| (r, w)).collect(),
            programs: field(v, "programs").map_err(ctx)?,
            overwrites: field(v, "overwrites").map_err(ctx)?,
            selective_erases: field(v, "selective_erases").map_err(ctx)?,
            erases: field(v, "erases").map_err(ctx)?,
        })
    }
}

impl CellArray {
    /// Creates an all-pristine array.
    pub fn new(geometry: PramGeometry) -> Self {
        CellArray {
            geometry,
            rows_per_partition: geometry.rows_per_partition(),
            rows: FxHashMap::default(),
            programs: 0,
            overwrites: 0,
            selective_erases: 0,
            erases: 0,
        }
    }

    /// The array geometry.
    pub fn geometry(&self) -> &PramGeometry {
        &self.geometry
    }

    /// Reads a full word (pristine rows read as zeros).
    ///
    /// # Panics
    ///
    /// Panics if the row is outside the geometry.
    pub fn read(&self, row: RowId) -> [u8; WORD_BYTES] {
        self.check_row(row);
        self.rows
            .get(&row)
            .map(|w| w.data)
            .unwrap_or([0; WORD_BYTES])
    }

    /// Whether a word is pristine (next program is SET-only).
    pub fn is_pristine(&self, row: RowId) -> bool {
        self.rows.get(&row).map(|w| w.pristine).unwrap_or(true)
    }

    /// Programs a word, returning which cell operation was required.
    ///
    /// Programming all zeros into a non-pristine word *is* the selective
    /// erasing primitive: it RESETs the cells and restores pristineness.
    ///
    /// # Panics
    ///
    /// Panics if the row is outside the geometry.
    pub fn program(&mut self, row: RowId, data: &[u8; WORD_BYTES]) -> ProgramKind {
        self.program_prefix(row, data)
    }

    /// Programs the first `data.len()` bytes of a word and keeps the rest
    /// of its stored bytes: the device's read-modify-write of a partial
    /// program burst, in one row lookup. Otherwise as
    /// [`CellArray::program`].
    ///
    /// # Panics
    ///
    /// Panics if the row is outside the geometry or `data` is longer than
    /// a word.
    pub fn program_prefix(&mut self, row: RowId, data: &[u8]) -> ProgramKind {
        self.check_row(row);
        let entry = self.rows.entry(row).or_default();
        let mut word = entry.data;
        word[..data.len()].copy_from_slice(data);
        let all_zero = word.iter().all(|&b| b == 0);
        let was_pristine = entry.pristine;
        entry.programs += 1;
        self.programs += 1;
        if all_zero {
            if was_pristine {
                ProgramKind::NoopErase
            } else {
                entry.data = [0; WORD_BYTES];
                entry.pristine = true;
                self.selective_erases += 1;
                ProgramKind::SelectiveErase
            }
        } else {
            entry.data = word;
            entry.pristine = false;
            if was_pristine {
                ProgramKind::SetOnly
            } else {
                self.overwrites += 1;
                ProgramKind::Overwrite
            }
        }
    }

    /// Erases a whole partition back to pristine zeros.
    pub fn erase_partition(&mut self, partition: PartitionId) {
        self.rows.retain(|row, _| row.partition != partition);
        self.erases += 1;
    }

    /// Number of rows currently holding programmed (non-pristine) data.
    pub fn programmed_rows(&self) -> usize {
        self.rows.values().filter(|w| !w.pristine).count()
    }

    /// Endurance summary: `(max_programs_on_any_row, rows_ever_touched)`.
    /// The §VII lifetime discussion turns on keeping the max low — wear
    /// leveling trades total work for spread.
    pub fn endurance(&self) -> (u32, usize) {
        (
            self.rows.values().map(|w| w.programs).max().unwrap_or(0),
            self.rows.len(),
        )
    }

    /// Lifetime operation counts: `(programs, overwrites, selective_erases,
    /// partition_erases)`.
    pub fn op_counts(&self) -> (u64, u64, u64, u64) {
        (
            self.programs,
            self.overwrites,
            self.selective_erases,
            self.erases,
        )
    }

    #[inline]
    fn check_row(&self, row: RowId) {
        assert!(
            row.partition.0 < self.geometry.partitions && row.array_row < self.rows_per_partition,
            "row {row} outside geometry"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> CellArray {
        CellArray::new(PramGeometry::paper())
    }

    #[test]
    fn unwritten_rows_read_pristine_zeros() {
        let cells = arr();
        let row = RowId::new(9, 1000);
        assert_eq!(cells.read(row), [0; WORD_BYTES]);
        assert!(cells.is_pristine(row));
    }

    #[test]
    fn program_then_read_back() {
        let mut cells = arr();
        let row = RowId::new(2, 7);
        let mut data = [0u8; WORD_BYTES];
        data[0] = 1;
        data[31] = 255;
        assert_eq!(cells.program(row, &data), ProgramKind::SetOnly);
        assert_eq!(cells.read(row), data);
        assert!(!cells.is_pristine(row));
    }

    #[test]
    fn overwrite_requires_reset_and_set() {
        let mut cells = arr();
        let row = RowId::new(0, 0);
        cells.program(row, &[1; WORD_BYTES]);
        assert_eq!(cells.program(row, &[2; WORD_BYTES]), ProgramKind::Overwrite);
        assert_eq!(cells.read(row), [2; WORD_BYTES]);
    }

    #[test]
    fn selective_erase_restores_pristine() {
        let mut cells = arr();
        let row = RowId::new(5, 123);
        cells.program(row, &[9; WORD_BYTES]);
        // Selective erase: program all zeros.
        assert_eq!(
            cells.program(row, &[0; WORD_BYTES]),
            ProgramKind::SelectiveErase
        );
        assert!(cells.is_pristine(row));
        assert_eq!(cells.read(row), [0; WORD_BYTES]);
        // Next program is SET-only again — the §V-A fast path.
        assert_eq!(cells.program(row, &[7; WORD_BYTES]), ProgramKind::SetOnly);
    }

    #[test]
    fn zero_program_on_pristine_is_noop() {
        let mut cells = arr();
        let row = RowId::new(1, 1);
        assert_eq!(cells.program(row, &[0; WORD_BYTES]), ProgramKind::NoopErase);
        assert!(cells.is_pristine(row));
    }

    #[test]
    fn partition_erase_clears_only_that_partition() {
        let mut cells = arr();
        let in_part = RowId::new(3, 10);
        let other = RowId::new(4, 10);
        cells.program(in_part, &[1; WORD_BYTES]);
        cells.program(other, &[2; WORD_BYTES]);
        cells.erase_partition(PartitionId(3));
        assert!(cells.is_pristine(in_part));
        assert_eq!(cells.read(in_part), [0; WORD_BYTES]);
        assert_eq!(cells.read(other), [2; WORD_BYTES]);
        assert_eq!(cells.programmed_rows(), 1);
    }

    #[test]
    fn op_counts_track_history() {
        let mut cells = arr();
        let row = RowId::new(0, 0);
        cells.program(row, &[1; WORD_BYTES]); // set-only
        cells.program(row, &[2; WORD_BYTES]); // overwrite
        cells.program(row, &[0; WORD_BYTES]); // selective erase
        cells.erase_partition(PartitionId(0));
        let (p, o, s, e) = cells.op_counts();
        assert_eq!((p, o, s, e), (3, 1, 1, 1));
    }

    #[test]
    fn images_write_rows_as_sorted_tuples_and_round_trip() {
        let mut cells = arr();
        let mut word = [0u8; WORD_BYTES];
        word[0] = 0xab;
        word[31] = 0x01;
        cells.program(RowId::new(3, 9), &word);
        cells.program(RowId::new(1, 700), &[0x10; WORD_BYTES]);
        cells.program(RowId::new(1, 700), &[0; WORD_BYTES]); // selective erase
        let image = cells.to_json();
        let rows = image.get("rows").and_then(Json::as_arr).unwrap();
        let hex = format!("ab{}01", "00".repeat(30));
        assert_eq!(
            rows[1].render(false),
            format!(r#"[3,9,"{hex}",false,1]"#),
            "rows are [partition, array_row, hex word, pristine, programs]"
        );
        assert_eq!(
            rows[0].render(false),
            format!(r#"[1,700,"{}",true,2]"#, "00".repeat(32))
        );
        let back = CellArray::from_json(&image).unwrap();
        assert_eq!(back.to_json(), image);
        assert_eq!(back.read(RowId::new(3, 9)), word);
        assert!(back.is_pristine(RowId::new(1, 700)));
        assert_eq!(back.op_counts(), cells.op_counts());
    }

    #[test]
    fn malformed_row_images_are_typed_errors() {
        let mut cells = arr();
        cells.program(RowId::new(0, 1), &[1; WORD_BYTES]);
        cells.program(RowId::new(0, 2), &[2; WORD_BYTES]);
        let reject = |why: &str, edit: &dyn Fn(&mut Vec<Json>)| {
            let mut image = cells.to_json();
            edit(image.get_mut("rows").and_then(Json::as_arr_mut).unwrap());
            let err = CellArray::from_json(&image).unwrap_err();
            assert!(err.msg.contains(why), "want {why:?}, got {err}");
        };
        reject("out of order or listed twice", &|rows| rows.swap(0, 1));
        reject("out of order or listed twice", &|rows| {
            let first = rows[0].clone();
            rows.push(first);
        });
        reject("outside the geometry", &|rows| {
            rows[1].as_arr_mut().unwrap()[0] = Json::U64(16);
        });
        reject("row", &|rows| rows[0] = Json::U64(7));
        reject("hex word", &|rows| {
            rows[0].as_arr_mut().unwrap()[2] = Json::Str("0101".into());
        });
    }

    #[test]
    fn prefix_programs_merge_over_the_stored_word() {
        let mut cells = arr();
        let row = RowId::new(2, 40);
        assert_eq!(cells.program_prefix(row, &[0; 8]), ProgramKind::NoopErase);
        assert_eq!(cells.program_prefix(row, &[3; 8]), ProgramKind::SetOnly);
        let mut want = [0u8; WORD_BYTES];
        want[..8].fill(3);
        assert_eq!(cells.read(row), want);
        // Zeroing the programmed prefix leaves an all-zero word: the
        // selective-erase primitive, as a full-word zero program is.
        assert_eq!(
            cells.program_prefix(row, &[0; 8]),
            ProgramKind::SelectiveErase
        );
        assert!(cells.is_pristine(row));
        cells.program(row, &[7; WORD_BYTES]);
        assert_eq!(cells.program_prefix(row, &[1; 4]), ProgramKind::Overwrite);
        assert_eq!(cells.read(row)[..6], [1, 1, 1, 1, 7, 7]);
        assert_eq!(cells.op_counts(), (5, 1, 1, 0));
    }

    #[test]
    #[should_panic(expected = "outside geometry")]
    fn out_of_range_row_rejected() {
        let mut cells = arr();
        cells.program(RowId::new(16, 0), &[1; WORD_BYTES]);
    }
}
