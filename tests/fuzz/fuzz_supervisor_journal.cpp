/// \file fuzz_supervisor_journal.cpp
/// \brief Fuzz target for the supervisor-journal decoder.
///
/// SupervisorJournal::decode is the pure in-memory core of `supervise
/// --resume` and of `merge --supervisor-journal`: everything it reads is
/// untrusted bytes off disk. Like the campaign journal it recovers a torn
/// tail, so the contract is: return a Decoded (possibly with a torn-tail
/// warning) or throw SupervisorJournalError — never crash, hang, or
/// over-allocate.

#include "fuzz_targets.hpp"

#include "core/error.hpp"
#include "supervise/journal.hpp"

namespace nodebench::fuzz {

int runSupervisorJournalOneInput(const std::uint8_t* data, std::size_t size) {
  try {
    (void)supervise::SupervisorJournal::decode({data, size});
  } catch (const Error&) {
    // SupervisorJournalError (or Error) is the structured rejection path.
  }
  return 0;
}

}  // namespace nodebench::fuzz

#ifdef NODEBENCH_FUZZ_DRIVER
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return nodebench::fuzz::runSupervisorJournalOneInput(data, size);
}
#endif
