//! A catalog of named [`SpatialTable`]s with create/drop/list, designed for
//! concurrent serving: writers lock one table, readers go through each
//! table's publication cell and never take the table lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use minskew_core::BuildError;

use crate::publish::{SnapshotCell, TableSnapshot};
use crate::reader::SpatialReader;
use crate::table::{SpatialTable, TableOptions};

/// Maximum table-name length accepted by [`SpatialCatalog::create`].
pub const MAX_TABLE_NAME: usize = 64;

/// Error from catalog operations.
#[derive(Debug)]
pub enum CatalogError {
    /// The name is empty, too long, or contains characters outside
    /// `[A-Za-z0-9_-]` (names must be single protocol tokens).
    InvalidName(String),
    /// A table with this name already exists.
    DuplicateTable(String),
    /// No table with this name exists.
    UnknownTable(String),
    /// The table options were invalid.
    Build(BuildError),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::InvalidName(name) => write!(
                f,
                "invalid table name {name:?} (1..={MAX_TABLE_NAME} chars from [A-Za-z0-9_-])"
            ),
            CatalogError::DuplicateTable(name) => write!(f, "table {name:?} already exists"),
            CatalogError::UnknownTable(name) => write!(f, "unknown table {name:?}"),
            CatalogError::Build(e) => write!(f, "invalid table options: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Build(e) => Some(e),
            _ => None,
        }
    }
}

/// One named table in a [`SpatialCatalog`].
///
/// Mutations (`INSERT`/`DELETE`/`ANALYZE`/snapshot loads) go through
/// [`CatalogEntry::table`], which locks the table. Estimates should go
/// through [`CatalogEntry::reader`]: the handle is constructed from the
/// table's publication cell **without touching the table lock**, so reads
/// proceed even while a writer holds the table through a long `ANALYZE`.
#[derive(Debug)]
pub struct CatalogEntry {
    name: String,
    /// The table's publication cell, cloned out at creation so readers can
    /// be minted while the table is locked.
    cell: Arc<SnapshotCell<TableSnapshot>>,
    table: Mutex<SpatialTable>,
}

impl CatalogEntry {
    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Locks the table for mutation (or locked inspection). Poisoning is
    /// recovered: the table's internal invariants hold after any panic
    /// because every mutation republishes at its end.
    pub fn table(&self) -> MutexGuard<'_, SpatialTable> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A reader over this table's published snapshots; see
    /// [`SpatialTable::reader`]. Does **not** take the table lock.
    pub fn reader(&self) -> SpatialReader {
        SpatialReader::new(self.cell.clone())
    }

    /// The table's currently published snapshot. Does **not** take the
    /// table lock.
    pub(crate) fn snapshot(&self) -> Arc<TableSnapshot> {
        self.cell.load()
    }
}

/// A concurrent catalog of named spatial tables.
///
/// The catalog map itself is guarded by one mutex held only for O(log n)
/// lookups — never across a table operation: entries are `Arc`-shared, so
/// `get` hands the entry out and drops the catalog lock immediately.
#[derive(Debug, Default)]
pub struct SpatialCatalog {
    tables: Mutex<BTreeMap<String, Arc<CatalogEntry>>>,
    /// Bumped after every create and drop; see [`SpatialCatalog::epoch`].
    epoch: AtomicU64,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TABLE_NAME
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

impl SpatialCatalog {
    /// Creates an empty catalog.
    pub fn new() -> SpatialCatalog {
        SpatialCatalog::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Arc<CatalogEntry>>> {
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a new empty table under `name`.
    pub fn create(
        &self,
        name: &str,
        options: TableOptions,
    ) -> Result<Arc<CatalogEntry>, CatalogError> {
        if !valid_name(name) {
            return Err(CatalogError::InvalidName(name.to_string()));
        }
        let table = SpatialTable::try_new(options).map_err(CatalogError::Build)?;
        let entry = Arc::new(CatalogEntry {
            name: name.to_string(),
            cell: table.snapshot_cell(),
            table: Mutex::new(table),
        });
        let mut tables = self.lock();
        if tables.contains_key(name) {
            return Err(CatalogError::DuplicateTable(name.to_string()));
        }
        tables.insert(name.to_string(), entry.clone());
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(entry)
    }

    /// Removes the table named `name` from the catalog. Existing `Arc`
    /// holders (open connections, readers) keep working against the
    /// detached table; new lookups no longer find it.
    pub fn drop_table(&self, name: &str) -> Result<(), CatalogError> {
        let mut tables = self.lock();
        if tables.remove(name).is_none() {
            return Err(CatalogError::UnknownTable(name.to_string()));
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// A counter bumped after every create and drop, under the catalog
    /// lock. A holder of entries it looked up by name keeps them while the
    /// epoch stays the same and looks them up again once it moves: one
    /// atomic load per check, never the catalog lock.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Looks up a table by name.
    pub fn get(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        self.lock().get(name).cloned()
    }

    /// All table names, sorted.
    pub fn list(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when the catalog holds no tables.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_geom::Rect;

    #[test]
    fn create_list_drop_round_trip() {
        let catalog = SpatialCatalog::new();
        catalog
            .create("roads", TableOptions::default())
            .expect("create");
        catalog
            .create("parcels", TableOptions::default())
            .expect("create");
        assert_eq!(catalog.list(), ["parcels", "roads"]);
        assert!(matches!(
            catalog.create("roads", TableOptions::default()),
            Err(CatalogError::DuplicateTable(_))
        ));
        catalog.drop_table("roads").expect("drop");
        assert_eq!(catalog.list(), ["parcels"]);
        assert!(matches!(
            catalog.drop_table("roads"),
            Err(CatalogError::UnknownTable(_))
        ));
        assert!(catalog.get("roads").is_none());
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn rejects_bad_names() {
        let catalog = SpatialCatalog::new();
        for bad in ["", "has space", "semi;colon", "x".repeat(65).as_str()] {
            assert!(
                matches!(
                    catalog.create(bad, TableOptions::default()),
                    Err(CatalogError::InvalidName(_))
                ),
                "{bad:?} must be rejected"
            );
        }
        catalog
            .create("ok_name-42", TableOptions::default())
            .expect("valid");
    }

    #[test]
    fn reader_minted_while_table_is_locked_serves_published_state() {
        let catalog = SpatialCatalog::new();
        let entry = catalog
            .create("t", TableOptions::default())
            .expect("create");
        {
            let mut table = entry.table();
            for i in 0..100 {
                let x = (i % 10) as f64 * 10.0;
                let y = (i / 10) as f64 * 10.0;
                table.insert(Rect::new(x, y, x + 5.0, y + 5.0));
            }
            table.analyze();
            // Table still locked: a reader minted now must serve the
            // published statistics without blocking.
            let mut reader = entry.reader();
            let q = Rect::new(0.0, 0.0, 50.0, 50.0);
            let expected = table.estimate(&q);
            assert_eq!(expected.to_bits(), reader.estimate(&q).to_bits());
        }
    }
}
