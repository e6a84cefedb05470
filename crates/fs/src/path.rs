//! Path splitting.

use crate::error::FsError;

/// Splits a path into its components, validating the syntax.
///
/// Accepted paths are absolute (`/a/b/c`) or relative (`a/b/c`); empty
/// components (`a//b`) and empty paths are rejected.  `.` and `..` are not
/// supported — the filesystem is used programmatically, not by a shell.
///
/// # Errors
///
/// Returns [`FsError::BadPath`] for invalid paths.
pub fn split_path(path: &str) -> Result<Vec<&str>, FsError> {
    let trimmed = path.strip_prefix('/').unwrap_or(path);
    if trimmed.is_empty() {
        return Err(FsError::BadPath {
            path: path.to_owned(),
        });
    }
    let components: Vec<&str> = trimmed.split('/').collect();
    if components
        .iter()
        .any(|c| c.is_empty() || *c == "." || *c == "..")
    {
        return Err(FsError::BadPath {
            path: path.to_owned(),
        });
    }
    Ok(components)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_absolute_and_relative() {
        assert_eq!(split_path("/a/b/c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(split_path("a/b").unwrap(), vec!["a", "b"]);
        assert_eq!(split_path("/file.txt").unwrap(), vec!["file.txt"]);
    }

    #[test]
    fn rejects_bad_paths() {
        for bad in ["", "/", "//", "/a//b", "a/./b", "a/../b"] {
            assert!(split_path(bad).is_err(), "{bad} should be rejected");
        }
    }
}
