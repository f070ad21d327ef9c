// Runtime hardware discovery for the execution layer: cache geometry the
// kernels size themselves against. Detection happens
// once (thread-safe static init); unknown values fall back to
// conservative constants so the kernels never degrade below the tuned
// PR 4 behavior on machines where sysconf reports nothing.

#ifndef PREFDB_EXEC_HARDWARE_H_
#define PREFDB_EXEC_HARDWARE_H_

#include <cstddef>

namespace prefdb {

/// Detected per-core L2 data-cache size in bytes (sysconf on POSIX,
/// /sys/devices fallback on Linux), or 0 when undetectable.
size_t DetectedL2CacheBytes();

/// The byte budget the blocked BNL window loop sizes its tiles against:
/// half the detected L2 (the window shares the cache with the streamed
/// candidates and payload vectors), clamped to [128 KiB, 1 MiB]; when
/// detection fails, the tuned 256 KiB constant the PR 4 measurements
/// used.
size_t BnlTileBudgetBytes();

}  // namespace prefdb

#endif  // PREFDB_EXEC_HARDWARE_H_
