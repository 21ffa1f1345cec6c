/**
 * @file
 * Test-local functional memory for controller unit tests. With fault
 * injection off a controller keeps no stored bits: a fill returns what
 * its content source says the block holds now. A test that writes back
 * crafted content (not the pool's next version) therefore records it
 * here first, and hands the controller source().
 */

#ifndef COP_TESTS_TEST_MEMORY_HPP
#define COP_TESTS_TEST_MEMORY_HPP

#include <map>

#include "mem/controller.hpp"
#include "workloads/trace_gen.hpp"

namespace cop {

class TestMemory
{
  public:
    explicit TestMemory(const BlockContentPool &pool) : pool_(pool) {}

    /** The content the test last wrote to a block, else the pool's. */
    MemoryController::ContentSource
    source()
    {
        return [this](Addr a) -> const CacheBlock & {
            const auto it = written_.find(a);
            return it != written_.end() ? it->second : pool_.blockForRef(a);
        };
    }

    /** Record @p data as the block's content, then write it back. */
    MemWriteResult
    write(MemoryController &ctrl, Addr addr, const CacheBlock &data,
          Cycle now, bool was_uncompressed)
    {
        written_[addr] = data;
        return ctrl.writeback(addr, data, now, was_uncompressed);
    }

  private:
    const BlockContentPool &pool_;
    std::map<Addr, CacheBlock> written_;
};

} // namespace cop

#endif // COP_TESTS_TEST_MEMORY_HPP
