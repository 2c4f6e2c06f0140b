package campaignd

import (
	"context"
	"io"
)

// StreamCSV pages the CSV export at path (relative to the coordinator's
// base URL, e.g. "/campaigns/ID/measurements" or
// "/campaigns/ID/generations?canonical=1") into w, pageSize rows or
// generations at a time, as StreamResult pages /result.
func (c *Client) StreamCSV(ctx context.Context, path string, pageSize int, w io.Writer) error {
	return c.streamCSV(ctx, c.Base+path, pageSize, w)
}
