//! Crash-safe file replacement: write-temp, fsync, atomic rename.
//!
//! Every on-disk cache and results artifact in the workspace (the
//! trained testutil bundles, the schema-versioned results store, the
//! sweep fabric's sealed journal segments) is replaced through this one primitive, so a process killed
//! mid-write can never leave a half-written file behind for the
//! warn-and-fallback readers to chew on: a reader observes either the
//! old complete file, the new complete file, or no file at all.
//!
//! The recipe is the standard POSIX one:
//!
//! 1. write the full contents to a sibling temp file (unique per process,
//!    so concurrent writers never clobber each other's temp),
//! 2. `fsync` the temp file, so the *data* is durable before the name is,
//! 3. `rename` it over the destination (atomic on POSIX),
//! 4. best-effort `fsync` the parent directory, so the rename itself
//!    survives a power cut (ignored on platforms/filesystems where
//!    directories cannot be opened).

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Atomically replaces `path` with `bytes`, creating parent directories.
///
/// On success the destination contains exactly `bytes`; on any error the
/// destination is untouched (the temp file is cleaned up best-effort).
///
/// # Errors
///
/// Propagates filesystem errors from the write, fsync or rename. The
/// parent-directory fsync is best-effort and never fails the call.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| Path::new(".").to_path_buf());
    fs::create_dir_all(&parent)?;
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = parent.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let write_and_sync = (|| -> io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    })();
    if let Err(e) = write_and_sync {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Make the rename itself durable. Directories cannot be fsync'd on
    // every platform, so failures here are ignored: the data is already
    // safely either old-or-new, never torn.
    if let Ok(dir) = fs::File::open(&parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("create-atomic-{}-{name}", std::process::id()))
    }

    #[test]
    fn writes_and_replaces_contents() {
        let path = tmp_path("replace.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer contents");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn creates_missing_parent_directories() {
        let dir = tmp_path("nested-dir");
        let path = dir.join("a/b/c.txt");
        write_atomic(&path, b"deep").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"deep");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leaves_no_temp_file_behind() {
        let dir = tmp_path("clean-dir");
        let path = dir.join("out.json");
        write_atomic(&path, b"{}").unwrap();
        let extras: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "out.json")
            .collect();
        assert!(extras.is_empty(), "stray files: {extras:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_leaves_destination_untouched() {
        let dir = tmp_path("err-dir");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kept.txt");
        write_atomic(&path, b"original").unwrap();
        // A destination whose name collides with an existing *directory*
        // makes the rename fail; the original must survive.
        let blocked = dir.join("blocked");
        fs::create_dir_all(blocked.join("sub")).unwrap();
        assert!(write_atomic(&blocked, b"clobber").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"original");
        fs::remove_dir_all(&dir).ok();
    }
}
