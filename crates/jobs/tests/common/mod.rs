//! The one temp-journal helper of the `fires-jobs` integration tests.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A journal path `<tmp>/<prefix>-<pid>-<tag>/<file>` in a directory
/// emptied first. Each test file passes its own prefix and each test its
/// own tag, so no two tests share a directory. The directory is removed
/// when the guard drops, unless the test is panicking: a failing test
/// keeps its evidence.
pub struct TempJournal {
    dir: PathBuf,
    path: PathBuf,
}

impl TempJournal {
    pub fn new(prefix: &str, tag: &str, file: &str) -> TempJournal {
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempJournal {
            path: dir.join(file),
            dir,
        }
    }
}

impl Deref for TempJournal {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempJournal {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}
