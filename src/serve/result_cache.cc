#include "src/serve/result_cache.h"

namespace vserve {

const ServeResult* ResultCache::Find(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    stats_.misses++;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  stats_.hits++;
  return &it->second->result;
}

void ResultCache::Insert(const std::string& key, ServeResult result) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second->result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(result)});
  entries_[key] = lru_.begin();
  stats_.insertions++;
  while (entries_.size() > kCapacity) {
    entries_.erase(lru_.back().key);
    lru_.pop_back();
    stats_.evictions++;
  }
}

void ResultCache::Clear() {
  lru_.clear();
  entries_.clear();
}

vl::Json ResultCache::StatsToJson() const {
  vl::Json j = vl::Json::Object();
  j["entries"] = vl::Json::Int(static_cast<int64_t>(entries_.size()));
  j["capacity"] = vl::Json::Int(static_cast<int64_t>(kCapacity));
  j["hits"] = vl::Json::Int(static_cast<int64_t>(stats_.hits));
  j["misses"] = vl::Json::Int(static_cast<int64_t>(stats_.misses));
  j["insertions"] = vl::Json::Int(static_cast<int64_t>(stats_.insertions));
  j["evictions"] = vl::Json::Int(static_cast<int64_t>(stats_.evictions));
  return j;
}

}  // namespace vserve
