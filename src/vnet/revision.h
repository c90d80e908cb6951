// Attachable revision counters for baseline config objects.
//
// The baseline fabric's verdict generation must move with every
// verdict-affecting change, but callers legitimately hold mutable pointers
// to route tables, security groups, ACLs, firewalls and TGWs (that is the
// baseline world's whole ergonomic problem) and mutate them directly
// between evaluations. RevisionHooked lets the owning fabric attach its
// config epoch to each object it hands out: any mutator bumps the epoch, so
// a verifier keyed on the generation sees the change no matter which path
// the mutation took. Objects never handed to a fabric have no counter
// attached and the hook is a no-op.

#ifndef TENANTNET_SRC_VNET_REVISION_H_
#define TENANTNET_SRC_VNET_REVISION_H_

#include <cstdint>

namespace tenantnet {

class RevisionHooked {
 public:
  // `counter` must outlive this object (the fabric owns both).
  void AttachRevisionCounter(uint64_t* counter) { revision_counter_ = counter; }

 protected:
  void BumpRevision() const {
    if (revision_counter_ != nullptr) {
      ++*revision_counter_;
    }
  }

 private:
  uint64_t* revision_counter_ = nullptr;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_VNET_REVISION_H_
