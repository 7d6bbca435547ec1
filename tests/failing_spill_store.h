// A SpillStore test fake that fails the next N Puts and the next M Gets
// with kIoError, then forwards everything to the wrapped backend. Drives
// the ShardManager's failure paths (a failed spill leaves the shard live, a
// failed rehydration answers with a Status, MaintenanceStats counts both)
// without needing a real full disk.
#ifndef FKC_TESTS_FAILING_SPILL_STORE_H_
#define FKC_TESTS_FAILING_SPILL_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "common/status.h"
#include "serving/spill_store.h"

namespace fkc {
namespace serving {

class FailingSpillStore final : public SpillStore {
 public:
  FailingSpillStore(std::shared_ptr<SpillStore> inner, int64_t failing_puts,
                    int64_t failing_gets)
      : inner_(std::move(inner)),
        name_(std::string("failing(") + inner_->Name() + ")"),
        failing_puts_(failing_puts),
        failing_gets_(failing_gets) {}

  Status Put(const std::string& key, std::string blob) override {
    if (Spend(&failing_puts_)) {
      return Status::IoError("injected write failure storing key '" + key +
                             "'");
    }
    return inner_->Put(key, std::move(blob));
  }
  Result<std::string> Get(const std::string& key) const override {
    if (Spend(&failing_gets_)) {
      return Status::IoError("injected read failure loading key '" + key +
                             "'");
    }
    return inner_->Get(key);
  }
  Status Erase(const std::string& key) override { return inner_->Erase(key); }
  Result<int64_t> GarbageCollect(const std::set<std::string>& keep) override {
    return inner_->GarbageCollect(keep);
  }
  Result<int64_t> Count() const override { return inner_->Count(); }
  const char* Name() const override { return name_.c_str(); }

 private:
  // True (and one failure spent) while `remaining` is positive.
  bool Spend(int64_t* remaining) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (*remaining <= 0) return false;
    --*remaining;
    return true;
  }

  std::shared_ptr<SpillStore> inner_;
  std::string name_;
  mutable std::mutex mu_;
  int64_t failing_puts_;
  mutable int64_t failing_gets_;
};

}  // namespace serving
}  // namespace fkc

#endif  // FKC_TESTS_FAILING_SPILL_STORE_H_
