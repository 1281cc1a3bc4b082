#include "src/serve/options.h"

#include "src/support/str.h"

namespace vserve {

dbg::CacheConfig SessionOptions::ToCacheConfig() const {
  dbg::CacheConfig config;
  config.block_bytes = block_bytes;
  config.delta_invalidation = incremental;
  return config;
}

vl::DiagnosticList SessionOptions::Validate() const {
  vl::DiagnosticList diags;
  if (incremental && block_bytes == 0) {
    diags.AddRule("VS001", vl::Severity::kError, vl::Span{},
                  "incremental refresh requires a block cache (block_bytes > 0); "
                  "set incremental=false or block_bytes>=1");
  }
  if (max_queued == 0) {
    diags.AddRule("VS004", vl::Severity::kError, vl::Span{},
                  "max_queued must be >= 1 (admission control needs a queue slot)");
  }
  if (shard.find('|') != std::string::npos ||
      shard.find_first_of(" \t\n") != std::string::npos) {
    diags.AddRule("VS005", vl::Severity::kError, vl::Span{},
                  "shard names may not contain '|' or whitespace "
                  "(they key stats and metrics series)");
  }
  if (block_bytes != 0 && (block_bytes & (block_bytes - 1)) != 0) {
    diags.AddRule("VS006", vl::Severity::kWarning, vl::Span{},
                  vl::StrFormat("block_bytes=%zu is rounded up to the next power of two "
                                "by the read session",
                                block_bytes));
  }
  diags.Sort();
  return diags;
}

std::string SessionOptions::ValidationText() const {
  vl::DiagnosticList diags = Validate();
  if (diags.errors() == 0) {
    return "";
  }
  std::string out;
  for (const vl::Diagnostic& d : diags.diags()) {
    out += vl::StrFormat("%s[%s]: %s\n", std::string(vl::SeverityName(d.severity)).c_str(),
                         d.rule.c_str(), d.message.c_str());
  }
  return out;
}

}  // namespace vserve
