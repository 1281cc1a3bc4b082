// vserve session configuration: the one way a client configures what its
// refreshes cost. SessionOptions holds the block cache, delta invalidation,
// render cache, engine, dedup and admission knobs in one validated struct
// that the client hands to Server::Connect. Validation is vlint-style
// fail-fast: every invalid combination gets a stable rule ID (VS001...) and a
// one-line diagnostic, and Connect refuses the session instead of silently
// "fixing" the options.

#ifndef SRC_SERVE_OPTIONS_H_
#define SRC_SERVE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/dbg/read_session.h"
#include "src/support/diag.h"

namespace vserve {

struct SessionOptions {
  // --- shared extraction cache (lowered to dbg::CacheConfig) ---
  // Aligned fetch granularity of the shard's ReadSession; 0 disables block
  // caching entirely (every read is a raw transport round trip).
  size_t block_bytes = 256;
  // Dirty-log delta invalidation: on a kernel mutation epoch, refresh only
  // blocks overlapping dirty pages. This is the serving default —
  // multi-client dashboards live on incremental refresh.
  bool incremental = true;

  // --- render ---
  // Digest-keyed render memo per pane.
  bool render_cache = true;

  // --- extraction engines & request dedup ---
  // Per-program shard engines: ViewCL programs are loaded once per shard and
  // re-Run() on refresh, so interning/memo snapshots persist across refreshes
  // and are shared by every session plotting the same figure. false runs
  // every replot of the session on a fresh interpreter: a from-scratch
  // reference (vbench's oracle renders on it).
  bool shared_engines = true;
  // Coalesce identical concurrent work: refreshes of the same (figure,
  // epoch, backend) are served once and fanned out from the shard's result
  // cache. false re-extracts on every refresh.
  bool coalesce = true;
  // Selects nothing: extraction batches whenever the shard has a block
  // cache (docs/caching.md#the-extraction-walker). Kept only because vbench
  // still assigns it.
  bool compile_plans = true;

  // --- placement & admission control ---
  // Shard to attach to; "" picks one round-robin across the server's shards.
  std::string shard;
  // Latency budget for the whole session on the virtual clock; once the
  // session's charged nanoseconds reach it, further refreshes are rejected
  // with RESOURCE_EXHAUSTED (and a budget violation is recorded). 0 means
  // unlimited.
  uint64_t session_budget_ns = 0;
  // Async refresh requests a session may have queued before SubmitRefresh
  // rejects with RESOURCE_EXHAUSTED.
  size_t max_queued = 16;

  // The cache fields as the dbg layer's config struct. Two sessions may
  // share a shard's ReadSession when their lowered configs are equal in
  // normalized form (dbg::CacheConfig::Normalized).
  dbg::CacheConfig ToCacheConfig() const;

  // Fail-fast diagnostics, stable rule IDs (VS002 and VS003 are unused):
  //   VS001 error   incremental refresh requires a block cache (block_bytes>0)
  //   VS004 error   max_queued must be >= 1
  //   VS005 error   shard names may not contain '|' or whitespace
  //   VS006 warning block_bytes is rounded up to a power of two
  vl::DiagnosticList Validate() const;
  // "" when there are no errors; else one rendered diagnostic per line
  // ("error[VS004]: ...").
  std::string ValidationText() const;
};

}  // namespace vserve

#endif  // SRC_SERVE_OPTIONS_H_
