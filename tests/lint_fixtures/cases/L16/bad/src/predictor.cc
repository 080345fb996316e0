#include "predictor.h"

template <class Self, class IO>
void
OutOfLineTable::serialize(Self &self, IO &io)
{
    field(io, self.rows_);  // lru_ forgotten
}

template void OutOfLineTable::serialize(const OutOfLineTable &,
                                        SnapshotWriter &);
template void OutOfLineTable::serialize(OutOfLineTable &, SnapshotReader &);
