#ifndef XCLUSTER_COMMON_IO_FILE_IO_H_
#define XCLUSTER_COMMON_IO_FILE_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace xcluster {

/// Replaces `path` with `data` atomically: the bytes are written to a
/// sibling temp file, fsync'd, and rename(2)'d over the target, so a crash
/// at any point leaves either the old file or the new one — never a torn
/// mix. The containing directory is fsync'd afterwards so the rename itself
/// is durable. When `sync` is false both fsyncs are skipped (tests).
Status WriteFileAtomic(const std::string& path, std::string_view data,
                       bool sync = true);

/// The first half of WriteFileAtomic: writes `data` to a new sibling temp
/// file of `path`, named uniquely within the process, fsync'd unless
/// `sync` is false, and returns the temp file's name. The caller either
/// commits it with CommitTempFile or deletes it.
Result<std::string> WriteTempSibling(const std::string& path,
                                     std::string_view data, bool sync = true);

/// The second half: renames `tmp` over `path`, then fsyncs the containing
/// directory unless `sync` is false. `tmp` is deleted if the rename fails.
Status CommitTempFile(const std::string& tmp, const std::string& path,
                      bool sync = true);

/// Reads the whole file into a string. Missing/unreadable files are
/// kIOError.
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace xcluster

#endif  // XCLUSTER_COMMON_IO_FILE_IO_H_
