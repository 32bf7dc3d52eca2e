package tensor

import "fmt"

// Row-tiled implicit-GEMM convolution: the fused extraction blocks compute a
// conv a handful of output rows at a time, into cache-resident tile buffers,
// reading only a row window of the input. Output tiling splits the GEMM's N
// dimension, which the blocked schedule already treats as embarrassingly
// independent, so any row tile is bit-identical to the same region of the
// full-map product — the call over rows [0, OutH) with the whole image as
// its window, which is how Conv2D.ForwardInfer runs an untiled conv:
//
//   - K blocking (the only arithmetic-relevant schedule: dst accumulates
//     across ascending gemmKC blocks) is unchanged.
//   - The asm/portable kernel split is kept on the GLOBAL column grid: a
//     column runs the 16-wide asm micro-kernel iff it lies in the full map's
//     [0, ⌊nOut/16⌋·16) region, regardless of where the tile boundaries
//     fall. Tiles whose edges cut through a 16-strip compute the whole strip
//     into a small spill buffer and copy out only the lanes they own — the
//     per-lane FMA chains are identical, so the spilled lanes match the
//     in-place ones bit for bit.
//   - Strip grouping within a K block has no arithmetic effect (each strip's
//     accumulation is independent), so tiles may chunk the interior strips
//     differently from the full-map schedule.
//
// TestConvMulRowsMatchesSerial pins every tile against im2col + GEMM across
// random geometries, ragged tile splits, and row windows.

// ConvTileScratch returns the float32 scratch length ConvMulRowsInto needs
// for a conv with outC output channels: a packed panel, a dense/strip tail
// tile, and an [outC, 16] spill buffer for strips cut by tile edges.
func ConvTileScratch(outC int) int {
	if useGemmAsm {
		return gemmKC*gemmNC + gemmKC*gemmNR + outC*gemmNR
	}
	return gemmKC * gemmNC
}

// ConvMulRowsInto computes output rows [or0, or1) of the implicit-GEMM conv
// wmat(OutC × C·KH·KW) @ im2col(g, ·) — i.e. columns [or0·OutW, or1·OutW) of
// the full product — writing element (oc, j) to dst[oc·ldd + dstOff + j −
// or0·OutW]. x holds input rows [xRow0, xRow0+xRows) of each channel plane
// (channel stride xRows·InW) and must cover every in-bounds row the
// requested output rows read. Strictly serial, zero heap allocations;
// scratch needs ConvTileScratch(OutC) floats. Bit-identical to the same
// region of MatMulSerialInto(wmat, im2col(g, x)) for any row split.
func ConvMulRowsInto(dst []float32, ldd, dstOff int, wmat *Tensor, g ConvGeom,
	x []float32, xRow0, xRows, or0, or1 int, scratch []float32) {
	kdim := g.InC * g.KH * g.KW
	outW := g.OutW()
	nOut := g.OutH() * outW
	if wmat.Rank() != 2 || wmat.Shape[1] != kdim {
		panic(fmt.Sprintf("tensor: ConvMulRows weight shape %v, want [*, %d]", wmat.Shape, kdim))
	}
	m := wmat.Shape[0]
	if or0 < 0 || or1 > g.OutH() || or0 > or1 {
		panic(fmt.Sprintf("tensor: ConvMulRows rows [%d, %d) outside [0, %d)", or0, or1, g.OutH()))
	}
	if len(scratch) < ConvTileScratch(m) {
		panic(fmt.Sprintf("tensor: ConvMulRows scratch %d < ConvTileScratch %d", len(scratch), ConvTileScratch(m)))
	}
	c0, c1 := or0*outW, or1*outW
	width := c1 - c0
	if width == 0 || m == 0 {
		return
	}
	a := wmat.Data
	for i := 0; i < m; i++ {
		clear(dst[i*ldd+dstOff : i*ldd+dstOff+width])
	}
	if !useGemmAsm {
		for jb := c0; jb < c1; jb += gemmNC {
			je := min(jb+gemmNC, c1)
			w := je - jb
			for pb := 0; pb < kdim; pb += gemmKC {
				pe := min(pb+gemmKC, kdim)
				kc := pe - pb
				tile := scratch[:kc*w]
				im2colTile(g, x, xRow0, xRows, tile, w, pb, pe, jb, je)
				goPanelPart(dst, a, tile, ldd, kdim, w, m, pb, pe, pb, dstOff+jb-c0, 0, w)
			}
		}
		return
	}
	// Asm path. Column regions on the global grid:
	//   [c0, headEnd)   partial head strip (c0 not 16-aligned) → spill
	//   [headEnd, intEnd) whole 16-strips → packed panels in place
	//   [intEnd, cm)    partial tail strip → spill
	//   [max(c0,n16), c1) global ragged tail → portable kernel
	n16 := nOut &^ (gemmNR - 1)
	cm := min(c1, n16)
	if c0 < cm {
		headEnd := min((c0+gemmNR-1)&^(gemmNR-1), cm)
		intEnd := max(cm&^(gemmNR-1), headEnd)
		for jb := headEnd; jb < intEnd; jb += gemmNC {
			je := min(jb+gemmNC, intEnd)
			nFull := je - jb // multiple of gemmNR
			for pb := 0; pb < kdim; pb += gemmKC {
				pe := min(pb+gemmKC, kdim)
				kc := pe - pb
				panel := scratch[:gemmKC*gemmNC]
				convPackStrips(g, x, xRow0, xRows, panel, pb, pe, jb, nFull)
				base := dstOff + jb - c0
				i := 0
				for ; i+gemmMR <= m; i += gemmMR {
					for js := 0; js < nFull; js += gemmNR {
						strip := panel[js*kc:]
						gemm4x16(kc,
							&a[i*kdim+pb], &a[(i+1)*kdim+pb], &a[(i+2)*kdim+pb], &a[(i+3)*kdim+pb],
							&strip[0],
							&dst[i*ldd+base+js], &dst[(i+1)*ldd+base+js],
							&dst[(i+2)*ldd+base+js], &dst[(i+3)*ldd+base+js])
					}
				}
				for ; i < m; i++ {
					gemm1x16s(kc, nFull/gemmNR, &a[i*kdim+pb], &panel[0], &dst[i*ldd+base])
				}
			}
		}
		if c0 < headEnd && headEnd-c0 < gemmNR {
			convSpillStrip(dst, ldd, dstOff, a, g, x, xRow0, xRows, m, kdim, c0&^(gemmNR-1), c0, headEnd, c0, scratch)
		}
		if intEnd < cm {
			convSpillStrip(dst, ldd, dstOff, a, g, x, xRow0, xRows, m, kdim, intEnd, intEnd, cm, c0, scratch)
		}
	}
	if t0 := max(c0, n16); t0 < c1 {
		tw := c1 - t0
		for pb := 0; pb < kdim; pb += gemmKC {
			pe := min(pb+gemmKC, kdim)
			kc := pe - pb
			tile := scratch[gemmKC*gemmNC : gemmKC*gemmNC+kc*tw]
			im2colTile(g, x, xRow0, xRows, tile, tw, pb, pe, t0, c1)
			goPanelPart(dst, a, tile, ldd, kdim, tw, m, pb, pe, pb, dstOff+t0-c0, 0, tw)
		}
	}
}

// convSpillStrip computes the full 16-column strip starting at global column
// strip0 into an [m, 16] spill buffer — running exactly the kernels and K
// schedule the full-map product runs for that strip — then copies lanes
// [lo, hi) into dst (tile origin column tileC0). Strips cut by a tile edge
// thus stay bit-identical to their uncut counterparts.
func convSpillStrip(dst []float32, ldd, dstOff int, a []float32, g ConvGeom,
	x []float32, xRow0, xRows, m, kdim, strip0, lo, hi, tileC0 int, scratch []float32) {
	spill := scratch[gemmKC*gemmNC+gemmKC*gemmNR : gemmKC*gemmNC+gemmKC*gemmNR+m*gemmNR]
	clear(spill)
	for pb := 0; pb < kdim; pb += gemmKC {
		pe := min(pb+gemmKC, kdim)
		kc := pe - pb
		panel := scratch[gemmKC*gemmNC : gemmKC*gemmNC+kc*gemmNR]
		convPackStrips(g, x, xRow0, xRows, panel, pb, pe, strip0, gemmNR)
		i := 0
		for ; i+gemmMR <= m; i += gemmMR {
			gemm4x16(kc,
				&a[i*kdim+pb], &a[(i+1)*kdim+pb], &a[(i+2)*kdim+pb], &a[(i+3)*kdim+pb],
				&panel[0],
				&spill[i*gemmNR], &spill[(i+1)*gemmNR], &spill[(i+2)*gemmNR], &spill[(i+3)*gemmNR])
		}
		for ; i < m; i++ {
			gemm1x16s(kc, 1, &a[i*kdim+pb], &panel[0], &spill[i*gemmNR])
		}
	}
	for i := 0; i < m; i++ {
		copy(dst[i*ldd+dstOff+lo-tileC0:i*ldd+dstOff+hi-tileC0], spill[i*gemmNR+lo-strip0:i*gemmNR+hi-strip0])
	}
}

// Im2ColU8Rows writes the columns of the u8 im2col matrix belonging to conv
// output rows [or0, or1) into cols, row-major with leading dimension
// (or1−or0)·OutW. Values are exactly the corresponding region of Im2ColU8
// (pad at padding positions). x holds input rows [xRow0, xRow0+xRows) of
// each channel plane with channel stride xRows·InW, as in convPackStrips.
// The int8 GEMM is exact integer arithmetic, so any row tiling of the conv
// built on this generator is trivially bit-exact.
func Im2ColU8Rows(g ConvGeom, x []uint8, xRow0, xRows int, cols []uint8, or0, or1 int, pad uint8) {
	outW := g.OutW()
	ld := (or1 - or0) * outW
	rows := g.InC * g.KH * g.KW
	if len(cols) < rows*ld {
		panic(fmt.Sprintf("tensor: Im2ColU8Rows cols %d, want %d", len(cols), rows*ld))
	}
	for c := 0; c < g.InC; c++ {
		chanBase := (c*xRows - xRow0) * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := ((c*g.KH+kh)*g.KW + kw) * ld
				for oh := or0; oh < or1; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					dstBase := row + (oh-or0)*outW
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < outW; ow++ {
							cols[dstBase+ow] = pad
						}
						continue
					}
					srcBase := chanBase + ih*g.InW
					if g.StrideW == 1 {
						owLo := max(0, g.PadW-kw)
						owHi := min(outW, g.InW+g.PadW-kw)
						owHi = max(owHi, owLo)
						for ow := 0; ow < owLo; ow++ {
							cols[dstBase+ow] = pad
						}
						s := srcBase + owLo - g.PadW + kw
						copy(cols[dstBase+owLo:dstBase+owHi], x[s:s+owHi-owLo])
						for ow := owHi; ow < outW; ow++ {
							cols[dstBase+ow] = pad
						}
						continue
					}
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw < 0 || iw >= g.InW {
							cols[dstBase+ow] = pad
						} else {
							cols[dstBase+ow] = x[srcBase+iw]
						}
					}
				}
			}
		}
	}
}
