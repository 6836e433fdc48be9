//! The one temp-directory helper of the `fires-serve` tests: the
//! integration tests include it as `mod common`, the unit tests as
//! `test_common`.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A fresh directory `<tmp>/<prefix>-<pid>-<tag>`, emptied first. Each
/// test file passes its own prefix and each test its own tag, so no two
/// tests share a directory. The directory is removed when the guard
/// drops, unless the test is panicking: a failing test keeps its
/// evidence.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(prefix: &str, tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
