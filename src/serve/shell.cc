#include "src/serve/shell.h"

#include <algorithm>
#include <fstream>
#include <map>

#include "src/analysis/lint.h"
#include "src/support/str.h"
#include "src/support/trace.h"
#include "src/viewcl/synthesize.h"

namespace vserve {

namespace {

// Splits "first rest..." on the first whitespace run.
std::pair<std::string, std::string> SplitFirst(std::string_view text) {
  text = vl::StrTrim(text);
  size_t space = text.find_first_of(" \t\n");
  if (space == std::string_view::npos) {
    return {std::string(text), ""};
  }
  return {std::string(text.substr(0, space)),
          std::string(vl::StrTrim(text.substr(space + 1)))};
}

// `vctrl top`'s view of a fleet snapshot (Server::StatsToJson): per shard,
// queue depth, inflight, extractions, dedup ratio, result/block cache hit
// rates and p99 queue/service ns.
vl::Json FleetTop(vl::Json fleet) {
  vl::Json top = vl::Json::Object();
  for (const char* key : {"sessions", "queued", "inflight", "workers", "paused"}) {
    top[key] = fleet[key];
  }
  vl::Json shards = vl::Json::Object();
  for (const auto& [name, entry] : fleet["shards"].entries()) {
    vl::Json s = entry;
    vl::Json t = vl::Json::Object();
    for (const char* key : {"sessions", "queue_depth", "inflight", "extractions", "dedup_hits"}) {
      t[key] = s[key];
    }
    double dedup = s["dedup_hits"].AsNumber();
    double served = s["extractions"].AsNumber() + dedup;
    t["dedup_ratio"] = vl::Json::Number(served > 0 ? dedup / served : 0.0);
    double hits = s["result_cache"]["hits"].AsNumber();
    double lookups = hits + s["result_cache"]["misses"].AsNumber();
    t["result_cache_hit_rate"] = vl::Json::Number(lookups > 0 ? hits / lookups : 0.0);
    t["block_cache_hit_rate"] = s["cache"]["hit_rate"];
    t["p99_queue_ns"] = s["flights"]["queue_ns"]["p99"];
    t["p99_service_ns"] = s["flights"]["service_ns"]["p99"];
    shards[name] = std::move(t);
  }
  top["shards"] = std::move(shards);
  return top;
}

std::string FleetTopText(const vl::Json& fleet) {
  vl::Json top = FleetTop(fleet);
  std::string out = vl::StrFormat(
      "sessions=%lld queued=%lld inflight=%lld workers=%lld%s\n",
      static_cast<long long>(top["sessions"].AsInt()),
      static_cast<long long>(top["queued"].AsInt()),
      static_cast<long long>(top["inflight"].AsInt()),
      static_cast<long long>(top["workers"].AsInt()), top["paused"].AsBool() ? " PAUSED" : "");
  out += vl::StrFormat("%-10s %5s %5s %8s %8s %6s %6s %6s %14s %14s\n", "shard", "sess",
                       "queue", "inflight", "extract", "dedup", "rcache", "bcache",
                       "p99_queue_ns", "p99_service_ns");
  for (const auto& [name, entry] : top["shards"].entries()) {
    vl::Json s = entry;
    out += vl::StrFormat(
        "%-10s %5lld %5lld %8lld %8lld %5.0f%% %5.0f%% %5.0f%% %14.0f %14.0f\n",
        name.c_str(), static_cast<long long>(s["sessions"].AsInt()),
        static_cast<long long>(s["queue_depth"].AsInt()),
        static_cast<long long>(s["inflight"].AsInt()),
        static_cast<long long>(s["extractions"].AsInt()), s["dedup_ratio"].AsNumber() * 100.0,
        s["result_cache_hit_rate"].AsNumber() * 100.0,
        s["block_cache_hit_rate"].AsNumber() * 100.0, s["p99_queue_ns"].AsNumber(),
        s["p99_service_ns"].AsNumber());
  }
  return out;
}

// `key="value"` with the value escaped for the Prometheus text format.
std::string PromLabel(const char* key, std::string_view value) {
  std::string out = std::string(key) + "=\"";
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
    }
    out += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  return out + "\"";
}

// A Prometheus text exposition (version 0.0.4) built from JSON stats: every
// family is typed once and its samples are contiguous, families sorted by
// name. Names come from the stats schema's keys ([a-z0-9_]); shard, session,
// model and read-tag names travel only as escaped label values.
class PromExposition {
 public:
  // One sample per number or bool under `value`, in the family named by its
  // key path (`name`_key_key...). A histogram (Histogram::ToJson's shape)
  // becomes a cumulative `le` histogram plus gauges for its min, max and
  // quantiles; a `per_model` map labels its entries by model; strings and
  // other arrays are not samples.
  void Add(const std::string& name, const vl::Json& value, const std::string& labels,
           const char* type = "gauge") {
    switch (value.kind()) {
      case vl::Json::Kind::kNumber:
        Sample(Family(name, type), name, labels, value.Dump());
        return;
      case vl::Json::Kind::kBool:
        Sample(Family(name, type), name, labels, value.AsBool() ? "1" : "0");
        return;
      case vl::Json::Kind::kObject:
        break;
      default:
        return;
    }
    const vl::Json* buckets = value.Find("buckets");
    if (buckets != nullptr) {
      std::string& family = Family(name, "histogram");
      std::string bucket_labels = labels.empty() ? "" : labels + ",";
      int64_t cumulative = 0;
      for (const vl::Json& bucket : buckets->items()) {
        cumulative += bucket.at(1).AsInt();
        Sample(family, name + "_bucket", bucket_labels + PromLabel("le", bucket.at(0).Dump()),
               vl::Json::Int(cumulative).Dump());
      }
      Sample(family, name + "_bucket", bucket_labels + PromLabel("le", "+Inf"),
             value.Find("count")->Dump());
      Sample(family, name + "_sum", labels, value.Find("sum")->Dump());
      Sample(family, name + "_count", labels, value.Find("count")->Dump());
    }
    for (const auto& [key, child] : value.entries()) {
      if (buckets != nullptr && (key == "count" || key == "sum")) {
        continue;
      }
      if (key == "per_model") {
        for (const auto& [model, stats] : child.entries()) {
          Add(name + "_per_model", stats,
              (labels.empty() ? "" : labels + ",") + PromLabel("model", model));
        }
        continue;
      }
      Add(name + "_" + key, child, labels, type);
    }
  }

  std::string Render() const {
    std::string out;
    for (const auto& [name, family] : families_) {
      out += "# TYPE " + name + " " + family.first + "\n" + family.second;
    }
    return out;
  }

 private:
  std::string& Family(const std::string& name, const char* type) {
    auto& family = families_[name];
    family.first = type;
    return family.second;
  }
  static void Sample(std::string& family, const std::string& name, const std::string& labels,
                     const std::string& value) {
    family += labels.empty() ? name : name + "{" + labels + "}";
    family += " " + value + "\n";
  }

  std::map<std::string, std::pair<std::string, std::string>> families_;  // type, samples
};

// `vctrl export prom`: the fleet snapshot as vl_serve_* gauges (per-shard
// families labelled by shard, per-session ones by session and shard) plus
// the tracer's read statistics as vl_dbg_read_* histograms and counters.
std::string FleetToPrometheus(const vl::Json& fleet, const vl::ReadStats& reads) {
  PromExposition prom;
  for (const auto& [key, value] : fleet.entries()) {
    if (key == "shards") {
      for (const auto& [name, shard] : value.entries()) {
        prom.Add("vl_serve_shard", shard, PromLabel("shard", name));
      }
    } else if (key == "per_session") {
      for (const vl::Json& session : value.items()) {
        std::string labels = PromLabel("session", session.Find("id")->Dump()) + "," +
                             PromLabel("shard", session.Find("shard")->AsString());
        for (const auto& [field, stat] : session.entries()) {
          if (field != "id") {
            prom.Add("vl_serve_session_" + field, stat, labels);
          }
        }
      }
    } else {
      prom.Add("vl_serve_" + key, value, "");
    }
  }
  prom.Add("vl_dbg_read_bytes", reads.bytes.ToJson(), "");
  prom.Add("vl_dbg_read_latency_ns", reads.latency_ns.ToJson(), "");
  for (const auto& [tag, counts] : reads.by_tag) {
    std::string labels = PromLabel("type", tag);
    prom.Add("vl_dbg_read_by_type_total", vl::Json::Int(static_cast<int64_t>(counts.reads)),
             labels, "counter");
    prom.Add("vl_dbg_read_bytes_by_type_total",
             vl::Json::Int(static_cast<int64_t>(counts.bytes)), labels, "counter");
  }
  return prom.Render();
}

// Sums an attribution subtree's nodes by span name.
void SumByName(const std::string& name, const vl::TreeNode& node,
               std::map<std::string, vl::SpanStats>* by_name) {
  vl::SpanStats& agg = (*by_name)[name];
  agg.count += node.count;
  agg.total_ns += node.total_ns;
  agg.self_ns += node.self_ns;
  for (const auto& [child_name, child] : node.children) {
    SumByName(child_name, child, by_name);
  }
}

// vprof's flat table: the run's spans summed by name over its attribution
// subtree, sorted by self time (desc, then name), top `top_n` rows, and a
// `(total self)` footer. Stores the summed self time in `*total_self`.
std::string SelfTimeTable(const std::string& root_name, const vl::TreeNode& root,
                          size_t top_n, uint64_t* total_self) {
  std::map<std::string, vl::SpanStats> by_name;
  SumByName(root_name, root, &by_name);
  *total_self = 0;
  for (const auto& [name, agg] : by_name) {
    *total_self += agg.self_ns;
  }
  std::vector<std::pair<std::string, vl::SpanStats>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.self_ns != b.second.self_ns) {
      return a.second.self_ns > b.second.self_ns;
    }
    return a.first < b.first;
  });
  if (rows.size() > top_n) {
    rows.resize(top_n);
  }
  std::string out = vl::StrFormat("%-28s %10s %14s %14s %7s\n", "span", "count", "total ms",
                                  "self ms", "self%");
  for (const auto& [name, agg] : rows) {
    double pct = *total_self > 0 ? 100.0 * static_cast<double>(agg.self_ns) /
                                       static_cast<double>(*total_self)
                                 : 0.0;
    out += vl::StrFormat("%-28s %10llu %14.3f %14.3f %6.1f%%\n", name.c_str(),
                         static_cast<unsigned long long>(agg.count),
                         static_cast<double>(agg.total_ns) / 1e6,
                         static_cast<double>(agg.self_ns) / 1e6, pct);
  }
  out += vl::StrFormat("%-28s %10s %14s %14.3f %6.1f%%\n", "(total self)", "", "",
                       static_cast<double>(*total_self) / 1e6, *total_self > 0 ? 100.0 : 0.0);
  return out;
}

}  // namespace

DebuggerShell::DebuggerShell(Session* session) : session_(session) {}

std::string DebuggerShell::Execute(const std::string& line) {
  auto [command, args] = SplitFirst(line);
  if (command == "vplot") {
    return CmdVplot(args);
  }
  if (command == "vctrl") {
    return CmdVctrl(args);
  }
  if (command == "vchat") {
    return CmdVchat(args);
  }
  if (command == "vprof") {
    return CmdVprof(args);
  }
  if (command == "help" || command.empty()) {
    return "commands: vplot <pane> [--auto <type> <expr>] <viewcl> | "
           "vctrl split|apply|lint|check|focus|view|dot|json|layout|save|stats|trace|"
           "explain|refresh|watch|budget|flights|top|slo|export | "
           "vprof <pane> <viewcl> | "
           "vchat <pane> <request>\n";
  }
  return "error: unknown command '" + command + "' (try 'help')\n";
}

std::string DebuggerShell::CmdVplot(const std::string& args) {
  auto [pane_text, program] = SplitFirst(args);
  int64_t pane_id = 0;
  if (!vl::ParseInt64(pane_text, &pane_id) || program.empty()) {
    return "usage: vplot <pane> <viewcl program>\n"
           "       vplot <pane> --auto <type> <root c-expression>\n";
  }
  std::string synthesized_note;
  if (program.substr(0, 6) == "--auto") {
    // Naive ViewCL synthesis for trivial objectives (paper 4).
    auto [flag, rest] = SplitFirst(program);
    auto [type_name, root_expr] = SplitFirst(rest);
    if (type_name.empty() || root_expr.empty()) {
      return "usage: vplot <pane> --auto <type> <root c-expression>\n";
    }
    auto generated = viewcl::SynthesizeViewCl(dbg()->types(), type_name, root_expr);
    if (!generated.ok()) {
      return "error: " + generated.status().ToString() + "\n";
    }
    synthesized_note = "synthesized ViewCL:\n" + *generated;
    program = *generated;
  }
  (void)synthesized_note;
  auto plotted = session_->Plot(static_cast<int>(pane_id), program);
  if (!plotted.ok()) {
    return "error: " + plotted.status().ToString() + "\n";
  }
  std::string out = synthesized_note +
                    vl::StrFormat("plotted %zu boxes into pane %d\n", plotted->boxes,
                                  static_cast<int>(pane_id));
  for (const std::string& warning : plotted->warnings) {
    out += "warning: " + warning + "\n";
  }
  return out;
}

std::string DebuggerShell::CmdVctrl(const std::string& args) {
  auto [sub, rest] = SplitFirst(args);
  if (sub == "split") {
    auto [pane_text, dir_text] = SplitFirst(rest);
    int64_t pane_id = 0;
    if (!vl::ParseInt64(pane_text, &pane_id) || dir_text.empty()) {
      return "usage: vctrl split <pane> h|v\n";
    }
    auto new_id = session_->Split(static_cast<int>(pane_id), dir_text[0]);
    if (!new_id.ok()) {
      return "error: " + new_id.status().ToString() + "\n";
    }
    return vl::StrFormat("created pane %d\n", *new_id);
  }
  if (sub == "apply") {
    auto [pane_text, viewql] = SplitFirst(rest);
    int64_t pane_id = 0;
    if (!vl::ParseInt64(pane_text, &pane_id) || viewql.empty()) {
      return "usage: vctrl apply <pane> <viewql>\n";
    }
    vl::Status status = session_->Apply(static_cast<int>(pane_id), viewql);
    if (!status.ok()) {
      return "error: " + status.ToString() + "\n";
    }
    return "applied\n";
  }
  if (sub == "lint") {
    return CmdLint(rest);
  }
  if (sub == "check") {
    return CmdCheck(rest);
  }
  if (sub == "focus") {
    auto [what, value_text] = SplitFirst(rest);
    std::vector<vision::FocusHit> hits;
    if (what == "addr") {
      int64_t addr = 0;
      if (!vl::ParseInt64(value_text, &addr)) {
        return "usage: vctrl focus addr <hex address>\n";
      }
      hits = panes().FocusAddress(static_cast<uint64_t>(addr));
    } else {
      int64_t value = 0;
      if (what.empty() || !vl::ParseInt64(value_text, &value)) {
        return "usage: vctrl focus <member> <value>\n";
      }
      hits = panes().FocusMember(what, value);
    }
    if (hits.empty()) {
      return "no matches\n";
    }
    std::string out;
    for (const vision::FocusHit& hit : hits) {
      out += vl::StrFormat("pane %d: box #%llu\n", hit.pane_id,
                           static_cast<unsigned long long>(hit.box_id));
    }
    return out;
  }
  if (sub == "view") {
    auto [pane_text, backend] = SplitFirst(rest);
    int64_t pane_id = 0;
    if (!vl::ParseInt64(pane_text, &pane_id)) {
      return "usage: vctrl view <pane> [" +
             vl::StrJoin(vision::RendererBackends(), "|") + "]\n";
    }
    if (backend.empty()) {
      backend = "ascii";
    }
    return session_->Render(static_cast<int>(pane_id), vision::RenderOptions{}, backend);
  }
  // `vctrl dot|json <pane>` are kept as aliases for `vctrl view <pane> <backend>`.
  if (sub == "dot" || sub == "json") {
    int64_t pane_id = 0;
    if (!vl::ParseInt64(rest, &pane_id)) {
      return "usage: vctrl " + sub + " <pane>\n";
    }
    std::string out =
        session_->Render(static_cast<int>(pane_id), vision::RenderOptions{}, sub);
    if (sub == "json" && !out.empty() && out.back() != '\n') {
      out += "\n";
    }
    return out;
  }
  if (sub == "layout") {
    return panes().LayoutAscii();
  }
  if (sub == "save") {
    return panes().SaveState().Dump(2) + "\n";
  }
  if (sub == "stats") {
    return CmdStats(rest);
  }
  if (sub == "trace") {
    return CmdTrace(rest);
  }
  if (sub == "explain") {
    return CmdExplain(rest);
  }
  if (sub == "refresh") {
    return CmdRefresh(rest);
  }
  if (sub == "watch") {
    return CmdWatch(rest);
  }
  if (sub == "budget") {
    return CmdBudget(rest);
  }
  if (sub == "export") {
    return CmdExport(rest);
  }
  if (sub == "flights") {
    return CmdFlights(rest);
  }
  if (sub == "top") {
    return CmdTop(rest);
  }
  if (sub == "slo") {
    return CmdSlo(rest);
  }
  return "usage: vctrl split|apply|focus|view|layout|save|stats|trace|"
         "explain|refresh|watch|budget|flights|top|slo|check|export ...\n";
}

std::string DebuggerShell::CmdCheck(const std::string& args) {
  std::string rule;
  bool json = false;
  std::string remaining = args;
  while (true) {
    auto [token, rest] = SplitFirst(remaining);
    if (token.empty()) {
      break;
    }
    if (token == "json") {
      json = true;
    } else if (token == "list") {
      std::string out;
      for (const analysis::CheckRuleInfo& info : analysis::CheckEngine::Catalog()) {
        out += vl::StrFormat("%s  %-20s %s\n", info.id, info.name, info.description);
      }
      return out;
    } else if (rule.empty()) {
      rule = token;
    } else {
      return "usage: vctrl check [rule|all|list] [json]\n";
    }
    remaining = rest;
  }
  auto sweep = session_->server()->Sweep(rule);
  if (!sweep.ok()) {
    return "error: " + sweep.status().ToString() + "\n";
  }
  if (json) {
    return sweep->ToJson().Dump(2) + "\n";
  }
  return sweep->RenderText();
}

vl::Json DebuggerShell::StatsJson() const {
  vl::Json j = vl::Json::Object();
  j["target"] = dbg()->target().StatsToJson();
  j["cache"] = dbg()->session().StatsToJson();
  vision::PaneManager& panes = session_->panes();
  vl::Json jpanes = vl::Json::Object();
  for (int id : panes.pane_ids()) {
    const viewql::ExecStats* stats = panes.exec_stats(id);
    if (stats != nullptr && stats->statements > 0) {
      jpanes[vl::StrFormat("%d", id)] = stats->ToJson();
    }
  }
  j["panes"] = std::move(jpanes);
  vl::Tracer& tracer = vl::Tracer::Instance();
  vl::Json jtracer = vl::Json::Object();
  jtracer["enabled"] = vl::Json::Bool(tracer.enabled());
  jtracer["recorded"] = vl::Json::Int(static_cast<int64_t>(tracer.recorded()));
  jtracer["dropped"] = vl::Json::Int(static_cast<int64_t>(tracer.dropped()));
  jtracer["reads"] = tracer.read_stats().ToJson();
  j["tracer"] = std::move(jtracer);
  j["serve"] = session_->StatsToJson();
  // The server-wide view: per-shard extraction/dedup counters, control_ns,
  // and the per-shard queue/service/total flight decomposition.
  vl::Json fleet = session_->server()->StatsToJson();
  // vcheck sweep accounting: the shards' sweep stats, summed.
  j["check"] = fleet["check"];
  j["fleet"] = std::move(fleet);
  return j;
}

std::string DebuggerShell::CmdStats(const std::string& args) {
  if (vl::StrTrim(args) == "json") {
    return StatsJson().Dump(2) + "\n";
  }
  std::string out;
  const dbg::Target& target = dbg()->target();
  out += vl::StrFormat("target: model=%s clock=%llu ns (%.3f ms) reads=%llu bytes=%llu\n",
                       target.model().name.c_str(),
                       static_cast<unsigned long long>(target.clock().nanos()),
                       target.clock().millis(),
                       static_cast<unsigned long long>(target.reads()),
                       static_cast<unsigned long long>(target.bytes_read()));
  for (const auto& [name, stats] : target.per_model_stats()) {
    out += vl::StrFormat("  %-16s %llu ns, %llu reads, %llu bytes\n", name.c_str(),
                         static_cast<unsigned long long>(stats.charged_ns),
                         static_cast<unsigned long long>(stats.reads),
                         static_cast<unsigned long long>(stats.bytes));
  }
  const dbg::ReadSession& session = dbg()->session();
  const dbg::CacheStats& cache = session.cache_stats();
  out += vl::StrFormat(
      "cache: %s block=%zu B, %llu hits / %llu misses (%.1f%% hit rate), "
      "%llu blocks cached, %llu evictions, %llu invalidations\n",
      session.cache_enabled() ? "on" : "off", session.config().block_bytes,
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses), cache.HitRate() * 100.0,
      static_cast<unsigned long long>(session.cached_blocks()),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(cache.invalidations));
  const dbg::Target::DirtyStats dirty = target.dirty_stats();
  if (session.delta_enabled() || dirty.queries > 0) {
    out += vl::StrFormat(
        "  delta: %s, %llu delta / %llu full invalidations "
        "(%llu B delta, %llu B full), %llu blocks refreshed (%llu B), "
        "%llu refills (%llu B), %llu B used\n",
        session.delta_enabled() ? "on" : "off",
        static_cast<unsigned long long>(cache.delta_invalidations),
        static_cast<unsigned long long>(cache.invalidations),
        static_cast<unsigned long long>(cache.invalidated_bytes_delta),
        static_cast<unsigned long long>(cache.invalidated_bytes_full),
        static_cast<unsigned long long>(cache.refreshed_blocks),
        static_cast<unsigned long long>(cache.refreshed_bytes),
        static_cast<unsigned long long>(cache.refills),
        static_cast<unsigned long long>(cache.refilled_bytes),
        static_cast<unsigned long long>(cache.used_bytes));
    out += vl::StrFormat(
        "  dirty-log: %llu queries, %llu pages scanned, %llu dirty, %llu ns charged\n",
        static_cast<unsigned long long>(dirty.queries),
        static_cast<unsigned long long>(dirty.pages_scanned),
        static_cast<unsigned long long>(dirty.pages_dirty),
        static_cast<unsigned long long>(dirty.charged_ns));
  }
  for (int id : panes().pane_ids()) {
    const viewql::ExecStats* stats = panes().exec_stats(id);
    if (stats == nullptr || stats->statements == 0) {
      continue;
    }
    out += vl::StrFormat(
        "pane %d: %d viewql statements (%d select, %d update), "
        "%llu boxes updated, %llu ns select, %llu ns update\n",
        id, stats->statements, stats->selects, stats->updates,
        static_cast<unsigned long long>(stats->boxes_updated),
        static_cast<unsigned long long>(stats->select_ns),
        static_cast<unsigned long long>(stats->update_ns));
  }
  vl::Tracer& tracer = vl::Tracer::Instance();
  out += vl::StrFormat("tracer: %s, %llu spans recorded, %llu dropped\n",
                       tracer.enabled() ? "on" : "off",
                       static_cast<unsigned long long>(tracer.recorded()),
                       static_cast<unsigned long long>(tracer.dropped()));
  out += vl::StrFormat(
      "serve: session %d on shard %s, %llu requests "
      "(%llu executed, %llu deduped, %llu rejected), %llu ns charged\n",
      session_->id(), session_->shard_name().c_str(),
      static_cast<unsigned long long>(session_->requests()),
      static_cast<unsigned long long>(session_->executed()),
      static_cast<unsigned long long>(session_->deduped()),
      static_cast<unsigned long long>(session_->rejected()),
      static_cast<unsigned long long>(session_->charged_ns()));
  FlightStats flights = session_->server()->flights().SessionStats(session_->id());
  if (flights.completed > 0 || flights.rejected > 0) {
    out += vl::StrFormat(
        "flights: %llu completed (%llu rejected), queue p50=%.0f p99=%.0f ns, "
        "service p50=%.0f p99=%.0f ns\n",
        static_cast<unsigned long long>(flights.completed),
        static_cast<unsigned long long>(flights.rejected),
        flights.queue_ns.ApproxQuantile(0.50), flights.queue_ns.ApproxQuantile(0.99),
        flights.service_ns.ApproxQuantile(0.50),
        flights.service_ns.ApproxQuantile(0.99));
  }
  vl::Json fleet = session_->server()->StatsToJson();
  vl::Json& check = fleet["check"];
  if (check["sweeps"].AsInt() > 0) {
    out += vl::StrFormat(
        "check: %lld sweep(s), %lld rule(s) run, %lld violation(s), "
        "%lld reads, %lld batches (%lld ns charged, %lld ns in batches)\n",
        static_cast<long long>(check["sweeps"].AsInt()),
        static_cast<long long>(check["rules_run"].AsInt()),
        static_cast<long long>(check["violations"].AsInt()),
        static_cast<long long>(check["reads"].AsInt()),
        static_cast<long long>(check["batches"].AsInt()),
        static_cast<long long>(check["charged_ns"].AsInt()),
        static_cast<long long>(check["batch_ns"].AsInt()));
  }
  vl::Json& walk = fleet["walk"];
  if (walk["runs"].AsInt() > 0) {
    out += "walk:";
    for (const auto& [name, value] : walk.entries()) {
      out += vl::StrFormat(" %s=%lld", name.c_str(), static_cast<long long>(value.AsInt()));
    }
    out += "\n";
  }
  const vl::ReadStats& reads = tracer.read_stats();
  if (reads.bytes.count() > 0) {
    out += vl::StrFormat(
        "traced reads: %llu, bytes p50=%.0f p99=%.0f, latency p50=%.0f p99=%.0f ns\n",
        static_cast<unsigned long long>(reads.bytes.count()), reads.bytes.ApproxQuantile(0.50),
        reads.bytes.ApproxQuantile(0.99), reads.latency_ns.ApproxQuantile(0.50),
        reads.latency_ns.ApproxQuantile(0.99));
    for (const auto& [tag, counts] : reads.by_tag) {
      out += vl::StrFormat("  %-28s %llu reads, %llu bytes\n", tag.c_str(),
                           static_cast<unsigned long long>(counts.reads),
                           static_cast<unsigned long long>(counts.bytes));
    }
  }
  return out;
}

std::string DebuggerShell::CmdTrace(const std::string& args) {
  auto [verb, rest] = SplitFirst(args);
  vl::Tracer& tracer = vl::Tracer::Instance();
  if (verb == "on") {
    tracer.Enable();
    return "tracing on\n";
  }
  if (verb == "off") {
    tracer.Disable();
    return "tracing off\n";
  }
  if (verb == "clear") {
    tracer.Clear();
    return "trace cleared\n";
  }
  if (verb == "dump") {
    if (rest.empty()) {
      return "usage: vctrl trace dump <file>\n";
    }
    std::ofstream file(rest);
    if (!file) {
      return "error: cannot open '" + rest + "'\n";
    }
    file << tracer.ToChromeJson().Dump(2) << "\n";
    return vl::StrFormat("wrote %llu spans to %s\n",
                         static_cast<unsigned long long>(tracer.Snapshot().size()),
                         rest.c_str());
  }
  return "usage: vctrl trace on|off|clear|dump <file>\n";
}

std::string DebuggerShell::CmdExplain(const std::string& args) {
  auto [pane_text, mode] = SplitFirst(args);
  int64_t pane_id = 0;
  if (!vl::ParseInt64(pane_text, &pane_id)) {
    return "usage: vctrl explain <pane> [json]\n";
  }

  // A fresh attribution tree around one full refresh: afterwards the tree's
  // root totals partition the refresh's clock delta exactly (the vprof
  // reconciliation invariant, extended to per-node attribution). Enabling
  // tree mode resets only the tree, so the user's trace keeps its spans.
  // This deliberately calls RefreshPane directly (not Session::Refresh): the
  // serve dedup path could satisfy the refresh from cache, which would
  // attribute nothing.
  vl::Tracer& tracer = vl::Tracer::Instance();
  bool was_enabled = tracer.enabled();
  tracer.SetTreeEnabled(true);
  tracer.Enable();
  uint64_t clock_before = dbg()->target().clock().nanos();
  auto result = panes().RefreshPane(static_cast<int>(pane_id), session_->MakeReplotFn());
  uint64_t clock_after = dbg()->target().clock().nanos();
  tracer.SetTreeEnabled(false);  // freeze the tree for rendering below
  if (!was_enabled) {
    tracer.Disable();
  }
  if (!result.ok()) {
    return "error: " + result.status().ToString() + "\n";
  }

  uint64_t clock_delta = clock_after - clock_before;
  uint64_t tree_total = 0;
  for (const auto& [name, node] : tracer.tree_root().children) {
    tree_total += node.total_ns;
  }
  bool reconciled = tree_total == clock_delta;

  if (vl::StrTrim(mode) == "json") {
    vl::Json j = vl::Json::Object();
    j["pane"] = vl::Json::Int(pane_id);
    j["boxes"] = vl::Json::Int(static_cast<int64_t>(result->boxes));
    j["epoch"] = vl::Json::Int(static_cast<int64_t>(result->epoch));
    j["clock_ns"] = vl::Json::Int(static_cast<int64_t>(clock_delta));
    j["reconciled"] = vl::Json::Bool(reconciled);
    j["tree"] = tracer.TreeToJson();
    return j.Dump(2) + "\n";
  }
  std::string out = vl::StrFormat("explain pane %d: %zu boxes, epoch %llu\n",
                                  static_cast<int>(pane_id), result->boxes,
                                  static_cast<unsigned long long>(result->epoch));
  out += tracer.TreeText();
  out += vl::StrFormat("clock: %llu virtual ns, tree total: %llu ns%s\n",
                       static_cast<unsigned long long>(clock_delta),
                       static_cast<unsigned long long>(tree_total),
                       reconciled ? " (exact)" : " (MISMATCH)");
  for (const std::string& key : result->violations) {
    out += "budget violation: " + key + "\n";
  }
  return out;
}

std::string DebuggerShell::CmdRefresh(const std::string& args) {
  int64_t pane_id = 0;
  if (!vl::ParseInt64(vl::StrTrim(args), &pane_id)) {
    return "usage: vctrl refresh <pane>\n";
  }
  auto result = session_->Refresh(static_cast<int>(pane_id));
  if (!result.ok()) {
    return "error: " + result.status().ToString() + "\n";
  }
  std::string out = vl::StrFormat(
      "refreshed pane %d: %zu boxes, %llu virtual ns, epoch %llu%s\n",
      static_cast<int>(pane_id), result->boxes,
      static_cast<unsigned long long>(result->refresh_ns),
      static_cast<unsigned long long>(result->epoch),
      result->deduped ? " (deduped)" : "");
  for (const std::string& key : result->violations) {
    out += "budget violation: " + key + "\n";
  }
  return out;
}

std::string DebuggerShell::CmdWatch(const std::string& args) {
  auto [what, mode] = SplitFirst(args);
  if (what == "on") {
    recorder().Enable();
    return "watch on\n";
  }
  if (what == "off") {
    recorder().Disable();
    return "watch off\n";
  }
  if (what == "clear") {
    recorder().Clear();
    return "watch cleared\n";
  }
  int64_t pane_id = 0;
  if (!vl::ParseInt64(what, &pane_id)) {
    return "usage: vctrl watch on|off|clear|<pane> [json]\n";
  }
  std::string refresh_key = vl::StrFormat("pane.%d", static_cast<int>(pane_id));
  std::string render_key = refresh_key + ".render";
  if (vl::StrTrim(mode) == "json") {
    vl::Json j = vl::Json::Object();
    if (recorder().Find(refresh_key) != nullptr) {
      j[refresh_key] = recorder().SeriesToJson(refresh_key);
    }
    if (recorder().Find(render_key) != nullptr) {
      j[render_key] = recorder().SeriesToJson(render_key);
    }
    return j.Dump(2) + "\n";
  }
  std::string out;
  if (recorder().Find(refresh_key) != nullptr) {
    out += recorder().TextReport(refresh_key);
  }
  if (recorder().Find(render_key) != nullptr) {
    out += recorder().TextReport(render_key);
  }
  if (out.empty()) {
    out = vl::StrFormat("(no samples for pane %d; is watch on?)\n",
                        static_cast<int>(pane_id));
  }
  return out;
}

std::string DebuggerShell::CmdBudget(const std::string& args) {
  auto [verb, rest] = SplitFirst(args);
  if (verb == "set") {
    auto [key_text, ns_text] = SplitFirst(rest);
    int64_t budget_ns = 0;
    if (key_text.empty() || !vl::ParseInt64(ns_text, &budget_ns) || budget_ns < 0) {
      return "usage: vctrl budget set <pane#|span-name> <ns>\n";
    }
    // A bare pane number means "budget that pane's whole refresh".
    int64_t pane_id = 0;
    std::string key = vl::ParseInt64(key_text, &pane_id)
                          ? vl::StrFormat("pane.%d", static_cast<int>(pane_id))
                          : key_text;
    budgets().Set(key, static_cast<uint64_t>(budget_ns));
    return vl::StrFormat("budget %s = %llu ns\n", key.c_str(),
                         static_cast<unsigned long long>(budget_ns));
  }
  if (verb == "clear") {
    budgets().ClearBudgets();
    budgets().ClearViolations();
    return "budgets cleared\n";
  }
  if (verb == "list") {
    std::string out = vl::StrFormat("budgets (%s):\n",
                                    budgets().enabled() ? "enabled" : "disabled");
    if (budgets().budgets().empty()) {
      out += "  (none)\n";
    }
    for (const auto& [key, budget_ns] : budgets().budgets()) {
      out += vl::StrFormat("  %-24s %llu ns\n", key.c_str(),
                           static_cast<unsigned long long>(budget_ns));
    }
    return out;
  }
  if (verb == "report") {
    if (vl::StrTrim(rest) == "json") {
      return budgets().ReportJson().Dump(2) + "\n";
    }
    return budgets().ReportText();
  }
  if (verb == "on") {
    budgets().Enable();
    return "budgets on\n";
  }
  if (verb == "off") {
    budgets().Disable();
    return "budgets off\n";
  }
  return "usage: vctrl budget set <pane#|span-name> <ns> | clear | list | "
         "report [json] | on | off\n";
}

std::string DebuggerShell::CmdExport(const std::string& args) {
  auto [format, path] = SplitFirst(args);
  std::string content;
  if (format == "prom") {
    content = FleetToPrometheus(session_->server()->StatsToJson(),
                                vl::Tracer::Instance().read_stats());
  } else if (format == "folded") {
    content = vl::Tracer::Instance().ToFolded();
  } else if (format == "chrome") {
    // The merged timeline: the span tracer's pid-1 track plus one process
    // per shard of flight tracks, with dedup flow arrows.
    vl::Json doc = vl::Tracer::Instance().ToChromeJson();
    vl::Json flights = session_->server()->ExportFlights();
    if (const vl::Json* events = flights.Find("traceEvents")) {
      for (const vl::Json& event : events->items()) {
        doc["traceEvents"].Append(event);
      }
    }
    if (const vl::Json* meta = flights.Find("metadata")) {
      doc["metadata"]["serve"] = *meta;
    }
    content = doc.Dump(2) + "\n";
  } else if (format == "flights") {
    content = session_->server()->ExportFlights().Dump(2) + "\n";
  } else {
    return "usage: vctrl export prom|folded|chrome|flights [path]\n";
  }
  if (path.empty()) {
    return content;
  }
  std::ofstream file(path);
  if (!file) {
    return "error: cannot open '" + path + "'\n";
  }
  file << content;
  return vl::StrFormat("wrote %zu bytes to %s\n", content.size(), path.c_str());
}

// vctrl flights [n] [json] — the most recent n flight records (default 16).
std::string DebuggerShell::CmdFlights(const std::string& args) {
  auto [first, second] = SplitFirst(args);
  int64_t n = 16;
  bool json = false;
  for (const std::string& word : {first, second}) {
    if (word.empty()) {
      continue;
    }
    if (word == "json") {
      json = true;
    } else if (!vl::ParseInt64(word, &n) || n <= 0) {
      return "usage: vctrl flights [n] [json]\n";
    }
  }
  FlightRecorder& flights = session_->server()->flights();
  if (json) {
    return flights.ToJson(static_cast<size_t>(n)).Dump(2) + "\n";
  }
  return flights.Table(static_cast<size_t>(n));
}

std::string DebuggerShell::CmdTop(const std::string& args) {
  vl::Json fleet = session_->server()->StatsToJson();
  if (vl::StrTrim(args) == "json") {
    return FleetTop(std::move(fleet)).Dump(2) + "\n";
  }
  return FleetTopText(fleet);
}

// vctrl slo set queue|service|total <ns> | report [json] | clear — fleet SLO
// ceilings on the flight decomposition (distinct from `vctrl budget`, which
// watches this session's pane refreshes).
std::string DebuggerShell::CmdSlo(const std::string& args) {
  auto [verb, rest] = SplitFirst(args);
  FlightRecorder& flights = session_->server()->flights();
  if (verb == "set") {
    auto [kind, ns_text] = SplitFirst(rest);
    int64_t slo_ns = 0;
    if ((kind != "queue" && kind != "service" && kind != "total") ||
        !vl::ParseInt64(ns_text, &slo_ns) || slo_ns < 0) {
      return "usage: vctrl slo set queue|service|total <ns>\n";
    }
    flights.SetSlo(kind, static_cast<uint64_t>(slo_ns));
    return vl::StrFormat("slo %s_ns = %llu ns\n", kind.c_str(),
                         static_cast<unsigned long long>(slo_ns));
  }
  if (verb == "report") {
    if (vl::StrTrim(rest) == "json") {
      return flights.SloReportJson().Dump(2) + "\n";
    }
    return flights.SloReportText();
  }
  if (verb == "clear") {
    flights.ClearSlo();
    return "slo ceilings cleared\n";
  }
  return "usage: vctrl slo set queue|service|total <ns> | report [json] | clear\n";
}

std::string DebuggerShell::CmdVprof(const std::string& args) {
  auto [pane_text, program] = SplitFirst(args);
  int64_t pane_id = 0;
  if (!vl::ParseInt64(pane_text, &pane_id) || program.empty()) {
    return "usage: vprof <pane> <viewcl program>\n";
  }
  // The breakdown is read from the `vprof` root's attribution subtree.
  // Enabling tree mode resets only the tree, so the user's trace keeps its
  // spans and gains the run's.
  vl::Tracer& tracer = vl::Tracer::Instance();
  bool was_enabled = tracer.enabled();
  tracer.SetTreeEnabled(true);
  tracer.Enable();

  // Reports the clock delta across the root span and leaves the clock alone:
  // the server accounts the shard's clock (flight reconciliation reads it).
  uint64_t clock_before = dbg()->target().clock().nanos();
  vl::Status run_status = vl::Status::Ok();
  size_t boxes = 0;
  {
    // Everything inside this root span: after it closes, the self times of
    // its subtree sum exactly to its duration — the target clock delta.
    vl::ScopedSpan root("vprof");
    auto graph = session_->RunProgram(program);
    if (!graph.ok()) {
      run_status = graph.status();
    } else {
      boxes = (*graph)->size();
      run_status =
          panes().SetGraph(static_cast<int>(pane_id), std::move(graph).value(), program);
      if (run_status.ok()) {
        panes().RenderPane(static_cast<int>(pane_id));  // profile render too
      }
    }
  }
  tracer.SetTreeEnabled(false);  // freeze the tree for the breakdown below
  if (!was_enabled) {
    tracer.Disable();
  }
  if (!run_status.ok()) {
    return "error: " + run_status.ToString() + "\n";
  }

  uint64_t clock_ns = dbg()->target().clock().nanos() - clock_before;
  auto root = tracer.tree_root().children.find("vprof");
  uint64_t self_ns = 0;
  std::string out = vl::StrFormat("vprof pane %d: %zu boxes\n",
                                  static_cast<int>(pane_id), boxes);
  out += SelfTimeTable("vprof",
                       root != tracer.tree_root().children.end() ? root->second : vl::TreeNode{},
                       10, &self_ns);
  out += vl::StrFormat("clock: %llu virtual ns, trace self total: %llu ns%s\n",
                       static_cast<unsigned long long>(clock_ns),
                       static_cast<unsigned long long>(self_ns),
                       clock_ns == self_ns ? " (exact)" : " (MISMATCH)");
  return out;
}

// vctrl lint <file|pane> [json] — static-check a ViewCL file (.vql = ViewQL)
// or a pane's accumulated programs without touching target memory.
std::string DebuggerShell::CmdLint(const std::string& args) {
  auto [target, mode] = SplitFirst(args);
  if (target.empty() || (!mode.empty() && mode != "json")) {
    return "usage: vctrl lint <file|pane> [json]\n";
  }
  bool json = mode == "json";
  analysis::Linter linter(&dbg()->types(), &dbg()->symbols(), &dbg()->helpers(),
                          &emoji_);

  struct LintJob {
    std::string name;
    std::string source;
    bool is_viewql = false;
  };
  std::vector<LintJob> jobs;
  analysis::ProgramSummary summary;

  int64_t pane_id = 0;
  if (vl::ParseInt64(target, &pane_id)) {
    std::string program = panes().program_text(static_cast<int>(pane_id));
    if (program.empty()) {
      return vl::StrFormat("error: pane %d has no ViewCL program to lint\n",
                           static_cast<int>(pane_id));
    }
    jobs.push_back({vl::StrFormat("pane %d", static_cast<int>(pane_id)), program, false});
    summary = linter.SummarizeViewCl(program);
    const std::vector<std::string>* history =
        panes().viewql_history(static_cast<int>(pane_id));
    if (history != nullptr) {
      for (size_t i = 0; i < history->size(); ++i) {
        jobs.push_back({vl::StrFormat("pane %d viewql[%zu]", static_cast<int>(pane_id), i),
                        (*history)[i], true});
      }
    }
  } else {
    std::ifstream in(target, std::ios::binary);
    if (!in) {
      return "error: cannot read '" + target + "'\n";
    }
    std::string source{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    bool is_viewql = target.size() > 4 && target.compare(target.size() - 4, 4, ".vql") == 0;
    jobs.push_back({target, std::move(source), is_viewql});
  }

  std::string out;
  vl::Json report = vl::Json::Array();
  size_t errors = 0;
  for (const LintJob& job : jobs) {
    analysis::LintResult result =
        job.is_viewql ? linter.LintViewQl(job.source, summary.valid ? &summary : nullptr)
                      : linter.LintViewCl(job.source);
    errors += result.diagnostics.errors();
    if (json) {
      report.Append(result.diagnostics.ToJson(job.name));
    } else {
      out += result.diagnostics.RenderText(job.source, job.name);
    }
  }
  if (json) {
    return report.Dump(2) + "\n";
  }
  return out;
}

std::string DebuggerShell::CmdVchat(const std::string& args) {
  auto [pane_text, request] = SplitFirst(args);
  int64_t pane_id = 0;
  if (!vl::ParseInt64(pane_text, &pane_id) || request.empty()) {
    return "usage: vchat <pane> <natural-language request>\n";
  }
  auto program = vchat_.Synthesize(request);
  if (!program.ok()) {
    return "error: " + program.status().ToString() + "\n";
  }
  std::string viewql = *program;
  std::string out = "synthesized ViewQL:\n" + viewql;

  // Gate the synthesized program through the linter before touching the
  // pane: a clean program applies as before; fixable mistakes are patched
  // via fix-its and re-checked once; anything still broken is refused with
  // the diagnostics as the retry hint.
  analysis::Linter linter(&dbg()->types(), &dbg()->symbols(), &dbg()->helpers(),
                          &emoji_);
  analysis::ProgramSummary summary =
      linter.SummarizeViewCl(panes().program_text(static_cast<int>(pane_id)));
  analysis::LintResult lint =
      linter.LintViewQl(viewql, summary.valid ? &summary : nullptr);
  if (lint.diagnostics.errors() > 0) {
    std::string patched = vl::ApplyFixIts(viewql, lint.diagnostics.diags());
    if (patched != viewql) {
      analysis::LintResult relint =
          linter.LintViewQl(patched, summary.valid ? &summary : nullptr);
      if (relint.diagnostics.errors() == 0) {
        out += "lint: applied fix-its:\n" + patched;
        viewql = std::move(patched);
        lint = std::move(relint);
      }
    }
  }
  if (lint.diagnostics.errors() > 0) {
    return out + "lint rejected the synthesized ViewQL:\n" +
           lint.diagnostics.RenderText(viewql, "vchat") +
           "hint: rephrase the request or apply a corrected program with vctrl apply\n";
  }

  vl::Status status = session_->Apply(static_cast<int>(pane_id), viewql);
  if (!status.ok()) {
    return out + "error applying: " + status.ToString() + "\n";
  }
  return out + "applied\n";
}

}  // namespace vserve
