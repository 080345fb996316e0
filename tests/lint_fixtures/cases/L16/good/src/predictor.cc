#include "predictor.h"

template <class Self, class IO>
void
OutOfLineTable::serialize(Self &self, IO &io)
{
    field(io, self.rows_);
    field(io, self.lru_);
}

template void OutOfLineTable::serialize(const OutOfLineTable &,
                                        SnapshotWriter &);
template void OutOfLineTable::serialize(OutOfLineTable &, SnapshotReader &);
