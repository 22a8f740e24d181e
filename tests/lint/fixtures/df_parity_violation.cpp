// lbmib-df-parity must flag parity flips and raw df-layout access
// outside the approved solver/grid TUs.
//
// CHECK: lbmib-df-parity
// EXPECT: 'swap_df_buffers' flips the df/df_new parity
// EXPECT: raw df slot constant 'kDfSlot' names the construction-time layout
// EXPECT: direct access to df storage 'df_'

void bad_flip(lbmib::CubeGrid& grid) {
  grid.swap_df_buffers();
}

double* bad_base(lbmib::CubeGrid& grid) {
  return grid.data() + lbmib::CubeGrid::kDfSlot;
}

double* bad_field(lbmib::CubeGrid& grid) {
  return grid.df_;
}
